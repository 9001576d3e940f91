package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
)

// tcpPair returns the two ends of a loopback TCP connection, so frame
// writers take the writev path they take in production.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// readAllAsync drains conn until EOF in the background; the returned
// function waits for and returns everything read.
func readAllAsync(conn net.Conn) func() []byte {
	ch := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(conn)
		ch <- b
	}()
	return func() []byte { return <-ch }
}

// flatFrame is the reference framing: u32 header length, header, u32
// payload length, payload — everything copied into one buffer.
func flatFrame(header, payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(header)))
	b = append(b, header...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// vecCase is one event batch shape for the byte-equality tables: value
// sizes straddle borrowMin, with keys and a header on every event (one
// header keeps the flat encoding's map order deterministic).
type vecCase struct {
	name  string
	sizes []int
}

var vecCases = []vecCase{
	{"empty-value", []int{0}},
	{"below-threshold", []int{borrowMin - 1}},
	{"at-threshold", []int{borrowMin}},
	{"64KiB", []int{64 << 10}},
	{"mixed", []int{0, borrowMin - 1, borrowMin, 64 << 10, 7, borrowMin}},
	{"no-events", nil},
}

func (c vecCase) events() []event.Event {
	if c.sizes == nil {
		return nil
	}
	evs := make([]event.Event, len(c.sizes))
	for i, n := range c.sizes {
		v := make([]byte, n)
		for j := range v {
			v[j] = byte(i*131 + j)
		}
		evs[i] = event.Event{
			Offset:    int64(100 + i),
			Key:       []byte(fmt.Sprintf("key-%d", i)),
			Value:     v,
			Timestamp: time.Unix(0, int64(1_700_000_000_000_000_000+i)),
			Headers:   map[string]string{"run": fmt.Sprint(i)},
		}
	}
	return evs
}

// TestRespWriterVectoredFramesMatchFlat proves the server's vectored
// response frames are byte-identical to the flat encoding, in v1 and v2
// framing, for values on both sides of the borrow threshold — every
// frame enqueued on one writer, so borrowed values interleave with
// copied headers across frames.
func TestRespWriterVectoredFramesMatchFlat(t *testing.T) {
	a, b := tcpPair(t)
	got := readAllAsync(b)
	w := newRespWriter(a)
	var want []byte
	for i, c := range vecCases {
		evs := c.events()
		payload := event.AppendBatchMarshal(nil, evs)
		corr := uint64(i + 1)

		resp := &FetchResp{NumEvents: len(evs), HighWatermark: 200, StartOffset: 3}
		resp.SetOffsets(evs)
		if err := w.writeV2(v2OpFetch, corr, resp, nil, evs); err != nil {
			t.Fatalf("%s v2: %v", c.name, err)
		}
		want = append(want, flatFrame(AppendResponseV2(nil, v2OpFetch, corr, resp), payload)...)

		v1 := &Response{Corr: corr, NumEvents: len(evs), HighWatermark: 200}
		if err := w.write(v1, evs); err != nil {
			t.Fatalf("%s v1: %v", c.name, err)
		}
		hb, _ := json.Marshal(v1)
		want = append(want, flatFrame(hb, payload)...)
	}
	// An error response carries no events even when some are passed.
	errEvs := vecCases[3].events()
	if err := w.writeV2(v2OpFetch, 99, nil, ErrFencedEpoch, errEvs); err != nil {
		t.Fatal(err)
	}
	want = append(want, flatFrame(appendErrResponseV2(nil, v2OpFetch, 99, ErrFencedEpoch), nil)...)
	w.close()
	a.Close()
	if g := got(); !bytes.Equal(g, want) {
		t.Fatalf("vectored stream differs from flat encoding: %d vs %d bytes, first difference at %d", len(g), len(want), firstDiff(g, want))
	}
}

// TestClientWriterVectoredFramesMatchFlat is the client-side twin: the
// writer goroutine encodes each produce call's events straight into its
// frame, borrowing values from threshold size up, and the frames equal
// the flat request encoding — header plus event.AppendBatchMarshal — in
// v1 and v2.
func TestClientWriterVectoredFramesMatchFlat(t *testing.T) {
	a, b := tcpPair(t)
	got := readAllAsync(b)
	wc := newWireConn(a, nil)
	var want []byte
	for _, version := range []int{ProtocolV2, ProtocolV1} {
		wc.mu.Lock()
		wc.version = version
		wc.mu.Unlock()
		for _, c := range vecCases {
			evs := c.events()
			payload := event.AppendBatchMarshal(nil, evs)
			req := &ProduceReq{Topic: "vt", Partition: 1, Acks: -1, NumEvents: len(evs)}
			// One-way calls complete when their write returns, so no
			// server is needed to answer.
			cl := &call{op: req.V2Op(), req: req, evs: evs, oneway: true, done: make(chan struct{})}
			if err := wc.do(cl); err != nil {
				t.Fatalf("%s v%d: %v", c.name, version, err)
			}
			var hdr []byte
			if version >= ProtocolV2 {
				hdr = AppendRequestV2(nil, cl.corr, req)
			} else {
				r := req.v1()
				r.Corr = cl.corr
				hdr, _ = json.Marshal(r)
			}
			want = append(want, flatFrame(hdr, payload)...)
		}
	}
	wc.fail(ErrConnClosed)
	if g := got(); !bytes.Equal(g, want) {
		t.Fatalf("vectored stream differs from flat encoding: %d vs %d bytes, first difference at %d", len(g), len(want), firstDiff(g, want))
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) == len(b) {
		return -1
	}
	return min(len(a), len(b))
}

// TestFrameVecRollsBackOversizedFrames: a frame whose payload exceeds
// MaxFrame is refused whole, leaving earlier frames — and their
// borrowed slices — exactly as they were.
func TestFrameVecRollsBackOversizedFrames(t *testing.T) {
	var v frameVec
	big := []event.Event{{Value: make([]byte, 2*borrowMin)}}
	if err := v.appendRequestV2(1, &ProduceReq{Topic: "t", NumEvents: 1}, big); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := v.writeTo(&want); err != nil {
		t.Fatal(err)
	}
	if err := v.appendRequestV2(2, &ProduceReq{Topic: "t", NumEvents: 1}, []event.Event{{Value: make([]byte, MaxFrame)}}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized produce: %v", err)
	}
	huge := []event.Event{{Value: make([]byte, MaxFrame)}}
	if err := v.appendResponseV2(v2OpFetch, 3, &FetchResp{NumEvents: 1}, nil, huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized event payload: %v", err)
	}
	var got bytes.Buffer
	if err := v.writeTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("a refused frame left bytes behind")
	}
}

// slowConn models a vectored write in flight. net.Buffers.WriteTo
// falls back to one Write per buffer on a conn that is not a
// *net.TCPConn, so slowConn treats everything the writer sends between
// two SetWriteDeadline calls (the writer sets one before each vectored
// write) as one writev: each Write hands its buffer to the socket in
// small paced chunks, and a racing Close takes effect only once the
// next vectored write starts — as a writev syscall keeps copying from
// the buffers it was given when the descriptor is closed under it.
type slowConn struct {
	net.Conn
	mu      sync.Mutex
	vec     bool // a vectored write may be in progress
	closing bool
	sent    atomic.Int64
}

func (c *slowConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	closing := c.closing
	c.vec = !closing
	c.mu.Unlock()
	if closing {
		c.Conn.Close()
		return net.ErrClosed
	}
	return c.Conn.SetWriteDeadline(t)
}

func (c *slowConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.closing && !c.vec {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.mu.Unlock()
	n := 0
	var err error
	for n < len(b) && err == nil {
		var k int
		k, err = c.Conn.Write(b[n:min(n+4<<10, len(b))])
		n += k
		c.sent.Add(int64(k))
		time.Sleep(50 * time.Microsecond)
	}
	return n, err
}

func (c *slowConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closing = true
	if c.vec {
		return nil // the vectored write in progress runs to its end
	}
	return c.Conn.Close()
}

// TestProducePayloadHeldUntilWritten is the lifetime regression test for
// borrowed produce values: the read side fails while a large produce
// frame is still being written, which completes the call early. The
// writer borrows the caller's event values, so Produce must not return
// — handing them back to the caller, who reuses them — until the write
// that borrowed them returned. Values reused too soon send poisoned
// bytes under an intact frame header, and the server appends them.
// Whatever the server receives, it must either decode the batch intact
// or drop the connection.
func TestProducePayloadHeldUntilWritten(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("pl", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1, DisableClusterMeta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	sc := &slowConn{Conn: raw}
	wc, err := c.open(sc)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	ep := c.eps[addr]
	dialed := ep.slots[0]
	ep.slots[0] = wc
	c.mu.Unlock()
	dialed.fail(ErrConnClosed)

	// About 768 KiB, every value borrowed: large enough to be in
	// flight for a while.
	const n, size = 48, 16 << 10
	pattern := func(seq, j int) byte { return byte(seq*31 + j) }
	evs := make([]event.Event, n)
	for i := range evs {
		v := make([]byte, size)
		binary.BigEndian.PutUint64(v, uint64(i))
		for j := 8; j < size; j++ {
			v[j] = pattern(i, j)
		}
		evs[i] = event.Event{Value: v}
	}
	payloadLen := int64(len(event.AppendBatchMarshal(nil, evs)))
	frameLen := 8 + int64(len(AppendRequestV2(nil, 0, &ProduceReq{Topic: "pl", Acks: int(broker.AcksLeader), NumEvents: n}))) + payloadLen

	sent0 := sc.sent.Load()
	produced := make(chan error, 1)
	go func() {
		_, err := c.Produce("", "pl", 0, evs, broker.AcksLeader)
		// Produce returned: the values are the caller's again, and it
		// reuses them for its next batch. Poison them in place, so
		// bytes still in flight from a premature return arrive poisoned.
		for i := range evs {
			for j := range evs[i].Value {
				evs[i].Value[j] = 0x5a
			}
		}
		produced <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for sc.sent.Load()-sent0 < payloadLen/4 {
		if time.Now().After(deadline) {
			t.Fatal("produce frame never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	wc.fail(errors.New("injected read-side failure"))
	<-produced // either outcome is legal: the retry may land on a fresh connection
	for sc.sent.Load()-sent0 < frameLen {
		if time.Now().After(deadline) {
			t.Fatal("slow write never finished")
		}
		time.Sleep(time.Millisecond)
	}

	// Give the server time to decode whatever complete frames it got,
	// then check every appended event against its own pattern.
	time.Sleep(100 * time.Millisecond)
	var off int64
	for {
		res, err := f.Fetch("", "pl", 0, off, 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) == 0 {
			break
		}
		for _, ev := range res.Events {
			v := ev.Value
			seq := int(binary.BigEndian.Uint64(v))
			if len(v) != size || seq >= n {
				t.Fatalf("offset %d: corrupt event (len %d, seq %d)", ev.Offset, len(v), seq)
			}
			for j := 8; j < size; j++ {
				if v[j] != pattern(seq, j) {
					t.Fatalf("offset %d (seq %d): byte %d poisoned: the payload was reused while its write was in flight", ev.Offset, seq, j)
				}
			}
		}
		off = res.Events[len(res.Events)-1].Offset + 1
	}
	if off%n != 0 {
		t.Fatalf("log holds %d events: a partial batch was appended", off)
	}
}

// FuzzVectoredFrame drives the vectored event encoder with arbitrary
// batch shapes: the frame it writes must equal the flat encoding byte
// for byte, and decode back to the same events.
func FuzzVectoredFrame(f *testing.F) {
	f.Add([]byte{0, 1, 2}, uint16(0), uint16(borrowMin), uint16(borrowMin-1))
	f.Add([]byte("key"), uint16(64<<10-1), uint16(3), uint16(borrowMin+1))
	f.Add([]byte{}, uint16(0), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, key []byte, s1, s2, s3 uint16) {
		var evs []event.Event
		for i, sz := range []uint16{s1, s2, s3} {
			v := make([]byte, sz)
			for j := range v {
				v[j] = byte(j ^ i)
			}
			ev := event.Event{Key: key, Value: v, Timestamp: time.Unix(0, int64(sz)*int64(i+1))}
			if i == 1 {
				ev.Headers = map[string]string{string(key): "h"}
			}
			evs = append(evs, ev)
		}
		resp := &FetchResp{NumEvents: len(evs)}
		resp.SetOffsets(evs)
		var v frameVec
		if err := v.appendResponseV2(v2OpFetch, 5, resp, nil, evs); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := v.writeTo(&got); err != nil {
			t.Fatal(err)
		}
		payload := event.AppendBatchMarshal(nil, evs)
		if want := flatFrame(AppendResponseV2(nil, v2OpFetch, 5, resp), payload); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("vectored frame differs from flat at byte %d", firstDiff(got.Bytes(), want))
		}
		rd := bytes.NewReader(got.Bytes())
		var hb []byte
		if _, err := readHeaderInto(rd, &hb); err != nil {
			t.Fatal(err)
		}
		data, err := ReadPayloadInto(rd, nil)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeEvents(data, len(evs))
		if err != nil {
			t.Fatal(err)
		}
		for i := range evs {
			if !bytes.Equal(dec[i].Key, evs[i].Key) || !bytes.Equal(dec[i].Value, evs[i].Value) {
				t.Fatalf("event %d did not round-trip", i)
			}
		}
	})
}
