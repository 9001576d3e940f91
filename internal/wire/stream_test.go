package wire

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/event"
)

// streamTopic provisions a topic and pre-produces n small events.
func streamTopic(t *testing.T, f *broker.Fabric, topic string, parts, n int) {
	t.Helper()
	if _, err := f.CreateTopic(topic, "", cluster.TopicConfig{Partitions: parts}); err != nil {
		t.Fatal(err)
	}
	evs := make([]event.Event, 0, 64)
	for i := 0; i < n; i++ {
		evs = append(evs, event.Event{Value: []byte(fmt.Sprintf("v%d", i))})
		if len(evs) == 64 || i == n-1 {
			if _, err := f.Produce("", topic, 0, evs, broker.AcksLeader); err != nil {
				t.Fatal(err)
			}
			evs = evs[:0]
		}
	}
}

// stream returns the client's stream session for a topic-partition,
// nil if none is open (white-box).
func (c *Client) stream(topic string, partition int) *clientStream {
	addr := c.dataAddr(topic, partition)
	c.mu.Lock()
	ep := c.eps[addr]
	var wc *wireConn
	if ep != nil {
		wc = ep.slots[c.slotFor(topic, partition)]
	}
	c.mu.Unlock()
	if wc == nil {
		return nil
	}
	return wc.streamFor(streamKey{topic, partition})
}

// TestStreamingFetchServesConsumer proves FetchBuffered transparently
// rides a stream on a streaming-negotiated connection: every event
// arrives in order, and a stream session (not per-call fetch requests)
// is what served them.
func TestStreamingFetchServesConsumer(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	const total = 1500
	streamTopic(t, f, "st", 1, total)
	// Pin the per-partition stream path: sessions would otherwise be
	// preferred and no stream would open.
	c, err := DialOptions(addr, Options{Anonymous: true, DisableSessionFetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Features()&FeatStreamFetch == 0 {
		t.Fatal("streaming fetch not negotiated on a current pairing")
	}
	var buf broker.FetchBuffer
	var off int64
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for got < total && time.Now().Before(deadline) {
		res, err := c.FetchBufferedWait("", "st", 0, off, 100, 1<<20, 100*time.Millisecond, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range res.Events {
			if ev.Offset != off {
				t.Fatalf("offset %d, want %d", ev.Offset, off)
			}
			if want := fmt.Sprintf("v%d", off); string(ev.Value) != want {
				t.Fatalf("event %d value %q, want %q", off, ev.Value, want)
			}
			off++
			got++
		}
	}
	if got != total {
		t.Fatalf("consumed %d of %d", got, total)
	}
	if c.stream("st", 0) == nil {
		t.Fatal("no stream session open: fetches fell back to request/response")
	}
	// Late-arriving data is pushed without a new request: produce after
	// the stream drained and the next wait-fetch must deliver it.
	if _, err := f.Produce("", "st", 0, []event.Event{{Value: []byte("late")}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	res, err := c.FetchBufferedWait("", "st", 0, off, 10, 1<<20, 5*time.Second, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 || string(res.Events[0].Value) != "late" {
		t.Fatalf("late event not pushed: %v", res.Events)
	}
}

// TestStreamCreditBoundsServerPush pins flow control: a reader that
// stops consuming receives at most the credit window of events — the
// server pump parks instead of buffering unboundedly — and resumes
// exactly where it left off once consumption restarts.
func TestStreamCreditBoundsServerPush(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	const total = 4000
	streamTopic(t, f, "cb", 1, total)
	c, err := DialOptions(addr, Options{Anonymous: true, DisableSessionFetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// maxEvents 10 → window clamps to 256 events.
	var buf broker.FetchBuffer
	res, err := c.FetchBuffered("", "cb", 0, 0, 10, 1<<20, &buf)
	if err != nil {
		t.Fatal(err)
	}
	s := c.stream("cb", 0)
	if s == nil {
		t.Fatal("no stream opened")
	}
	if s.window != 256 {
		t.Fatalf("window = %d, want 256", s.window)
	}
	// Stall: do not fetch again. The server may push at most the
	// remaining window; wait for the pipeline to quiesce and count what
	// landed client-side.
	time.Sleep(300 * time.Millisecond)
	buffered := func() int {
		n := len(s.evs) - s.idx
		var drained []*streamFrame
		for {
			select {
			case fr := <-s.frames:
				n += fr.hdr.NumEvents
				drained = append(drained, fr)
				continue
			default:
			}
			break
		}
		for _, fr := range drained {
			s.frames <- fr
		}
		return n
	}
	// Drain-count without consuming: total queued events plus what was
	// already served must not exceed the window.
	inflight := buffered() + len(res.Events)
	if inflight > s.window {
		t.Fatalf("server pushed %d events against a %d-event window", inflight, s.window)
	}
	if inflight < len(res.Events)+1 {
		t.Fatalf("server pushed nothing beyond the first batch (%d)", inflight)
	}
	// Resume: every remaining event arrives, in order.
	if len(res.Events) == 0 {
		t.Fatal("first stream fetch returned no events below the HW")
	}
	off := res.Events[len(res.Events)-1].Offset + 1
	deadline := time.Now().Add(15 * time.Second)
	for off < total && time.Now().Before(deadline) {
		res, err := c.FetchBufferedWait("", "cb", 0, off, 500, 1<<20, 100*time.Millisecond, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range res.Events {
			if ev.Offset != off {
				t.Fatalf("offset %d, want %d", ev.Offset, off)
			}
			off++
		}
	}
	if off != total {
		t.Fatalf("resumed consumption reached %d of %d", off, total)
	}
}

// TestStreamByteCreditBoundsServerPush pins the byte-denominated
// window: with StreamWindowBytes set, a reader that stops consuming
// receives at most the byte window of payload (plus at most one event
// of ReadBudget slack) no matter how much event credit remains — and
// resumes losslessly once consumption restarts. The same workload
// without a byte window buffers far more, which is exactly the
// unbounded-in-bytes behavior the window exists to cap.
func TestStreamByteCreditBoundsServerPush(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	const total, evSize = 2000, 1024
	if _, err := f.CreateTopic("bw", "", cluster.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	evs := make([]event.Event, 100)
	for i := range evs {
		evs[i] = event.Event{Value: make([]byte, evSize)}
	}
	for n := 0; n < total; n += len(evs) {
		if _, err := f.Produce("", "bw", 0, evs, broker.AcksLeader); err != nil {
			t.Fatal(err)
		}
	}
	const window = 8 << 10 // 8 KB ≈ 8 events; event credit alone would allow 256
	c, err := DialOptions(addr, Options{Anonymous: true, StreamWindowBytes: window, DisableSessionFetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf broker.FetchBuffer
	res, err := c.FetchBuffered("", "bw", 0, 0, 10, 1<<20, &buf)
	if err != nil {
		t.Fatal(err)
	}
	s := c.stream("bw", 0)
	if s == nil {
		t.Fatal("no stream opened")
	}
	if s.windowBytes != window {
		t.Fatalf("windowBytes = %d, want %d", s.windowBytes, window)
	}
	// Stall: the pump must park once the byte window is exhausted.
	time.Sleep(300 * time.Millisecond)
	queued := 0
	var drained []*streamFrame
	for {
		select {
		case fr := <-s.frames:
			queued += fr.hdr.NumEvents
			drained = append(drained, fr)
			continue
		default:
		}
		break
	}
	for _, fr := range drained {
		s.frames <- fr
	}
	// The window bounds un-granted bytes: the first batch was consumed
	// (its bytes granted back), so what may pile up client-side while
	// the reader stalls is one byte window, with at most one event of
	// ReadBudget slack.
	outstanding := (queued + (len(s.evs) - s.idx)) * evSize
	if outstanding > window+evSize {
		t.Fatalf("server pushed %d un-granted bytes against a %d-byte window", outstanding, window)
	}
	if outstanding == 0 {
		t.Fatal("server pushed nothing beyond the first batch")
	}
	// Resume: every remaining event arrives, in order — byte grants keep
	// the window rolling.
	if len(res.Events) == 0 {
		t.Fatal("first stream fetch returned no events below the HW")
	}
	off := res.Events[len(res.Events)-1].Offset + 1
	deadline := time.Now().Add(15 * time.Second)
	for off < total && time.Now().Before(deadline) {
		res, err := c.FetchBufferedWait("", "bw", 0, off, 500, 1<<20, 100*time.Millisecond, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range res.Events {
			if ev.Offset != off {
				t.Fatalf("offset %d, want %d", ev.Offset, off)
			}
			off++
		}
	}
	if off != total {
		t.Fatalf("resumed consumption reached %d of %d", off, total)
	}
}

// TestStreamCloseFailsSessionWithErrConnClosed: closing the client
// mid-stream completes the session with ErrConnClosed — both a parked
// wait-fetch and the next fetch observe it.
func TestStreamCloseFailsSessionWithErrConnClosed(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	streamTopic(t, f, "cl", 1, 10)
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	var buf broker.FetchBuffer
	if _, err := c.FetchBuffered("", "cl", 0, 0, 100, 1<<20, &buf); err != nil {
		t.Fatal(err)
	}
	// Park a wait-fetch at the stream tail, then close underneath it.
	errCh := make(chan error, 1)
	go func() {
		var b2 broker.FetchBuffer
		_, err := c.FetchBufferedWait("", "cl", 0, 10, 100, 1<<20, 10*time.Second, &b2)
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	c.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("parked stream fetch returned %v, want ErrConnClosed", err)
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("parked fetch took %v to observe Close", time.Since(start))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked stream fetch never unblocked after Close")
	}
	if _, err := c.FetchBuffered("", "cl", 0, 10, 100, 1<<20, &buf); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("post-Close stream fetch returned %v, want ErrConnClosed", err)
	}
}

// TestStreamDisconnectRecovers: a server-side connection drop fails the
// in-flight stream session, and the client's retry reopens a stream on
// a fresh connection without losing position.
func TestStreamDisconnectRecovers(t *testing.T) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	s.AllowAnonymous = true
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	streamTopic(t, f, "dc", 1, 200)
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf broker.FetchBuffer
	res, err := c.FetchBuffered("", "dc", 0, 0, 50, 1<<20, &buf)
	if err != nil || len(res.Events) == 0 {
		t.Fatalf("first stream fetch: %d events, %v", len(res.Events), err)
	}
	off := res.Events[len(res.Events)-1].Offset + 1
	// Kill every server-side connection; the stream session dies with
	// the transport error, then the retry path reopens.
	s.Close()
	s2 := NewServer(f)
	s2.AllowAnonymous = true
	if _, err := s2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer s2.Close()
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for off < 200 && time.Now().Before(deadline) {
		res, err := c.FetchBuffered("", "dc", 0, off, 50, 1<<20, &buf)
		if err != nil {
			continue // transient while the new listener comes up
		}
		for _, ev := range res.Events {
			if ev.Offset != off {
				t.Fatalf("offset %d, want %d after reconnect", ev.Offset, off)
			}
			off++
			got++
		}
	}
	if off != 200 {
		t.Fatalf("reconnected consumption reached %d of 200", off)
	}
}

// TestStreamSeekReopens: fetching at an offset other than the stream's
// position closes and reopens the stream — the consumer's Seek just
// works, with no stale data.
func TestStreamSeekReopens(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	streamTopic(t, f, "sk", 1, 300)
	c, err := DialOptions(addr, Options{Anonymous: true, DisableSessionFetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf broker.FetchBuffer
	if _, err := c.FetchBuffered("", "sk", 0, 0, 100, 1<<20, &buf); err != nil {
		t.Fatal(err)
	}
	first := c.stream("sk", 0)
	// Seek back to 7: the session must reopen there.
	res, err := c.FetchBufferedWait("", "sk", 0, 7, 10, 1<<20, 2*time.Second, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 || res.Events[0].Offset != 7 {
		t.Fatalf("seek fetch returned %d events starting %v, want offset 7", len(res.Events), res.Events)
	}
	second := c.stream("sk", 0)
	if second == nil || second == first {
		t.Fatal("seek did not reopen the stream session")
	}
	// Typed errors still surface through the stream path.
	if _, err := c.FetchBuffered("", "sk", 0, 9999, 10, 1<<20, &buf); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("out-of-range stream open returned %v", err)
	}
	if _, err := c.FetchBuffered("", "nope", 0, 0, 10, 1<<20, &buf); !errors.Is(err, ErrUnknownTopic) {
		t.Fatalf("unknown-topic stream open returned %v", err)
	}
}

// TestStreamOpenFallsBackOnFeaturelessPeer: a client that negotiated v2
// against a server with streaming masked off (and against a v1 server)
// silently uses request/response fetch.
func TestStreamOpenFallsBackOnFeaturelessPeer(t *testing.T) {
	for _, tc := range []struct {
		name      string
		serverMax int
		disable   bool
	}{
		{"v2-server-streaming-disabled", 0, true},
		{"v1-server", ProtocolV1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := broker.NewFabric(nil)
			if err := f.AddBrokers(2, 2, 8); err != nil {
				t.Fatal(err)
			}
			srv := NewServer(f)
			srv.AllowAnonymous = true
			srv.MaxVersion = tc.serverMax
			srv.DisableStreaming = tc.disable
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			streamTopic(t, f, "fb", 1, 120)
			c, err := DialAnonymous(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.Features()&FeatStreamFetch != 0 {
				t.Fatal("server offered streaming despite the mask")
			}
			var buf broker.FetchBuffer
			var off int64
			for off < 120 {
				res, err := c.FetchBufferedWait("", "fb", 0, off, 50, 1<<20, 50*time.Millisecond, &buf)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Events) == 0 {
					t.Fatalf("empty fetch at %d on a loaded partition", off)
				}
				for _, ev := range res.Events {
					if ev.Offset != off {
						t.Fatalf("offset %d, want %d", ev.Offset, off)
					}
					off++
				}
			}
			if c.stream("fb", 0) != nil {
				t.Fatal("stream session open against a feature-less peer")
			}
		})
	}
}

// TestLongPollIdleConsumerPerformsNoReads is the tail-waiter regression
// test: an idle consumer parked in a long poll issues no log reads
// between appends — the CPU cost of an idle subscription is a blocked
// goroutine, not a poll loop.
func TestLongPollIdleConsumerPerformsNoReads(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	streamTopic(t, f, "lp", 1, 5)
	// Pin to plain request/response fetch so this exercises the
	// FetchReq.WaitMaxMS long-poll path specifically (the streaming path
	// parks in its own pump, covered by the stream tests).
	c, err := DialOptions(addr, Options{Anonymous: true, DisableStreaming: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cons := client.NewConsumer(c, client.ConsumerConfig{
		Start: client.StartEarliest, PollWait: 3 * time.Second,
	})
	defer cons.Close()
	if err := cons.Assign("lp", 0); err != nil {
		t.Fatal(err)
	}
	// Drain the preloaded events.
	drained := 0
	for drained < 5 {
		evs, err := cons.Poll(100)
		if err != nil {
			t.Fatal(err)
		}
		drained += len(evs)
	}
	log, err := f.LeaderLog("lp", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Idle: a Poll is parked server-side. Reads must not grow while no
	// data arrives.
	type pollRes struct {
		evs []event.Event
		err error
	}
	done := make(chan pollRes, 1)
	go func() {
		evs, err := cons.Poll(100)
		done <- pollRes{evs, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the poll reach the server and park
	before := log.Reads()
	time.Sleep(400 * time.Millisecond)
	if delta := log.Reads() - before; delta != 0 {
		t.Fatalf("idle long-polling consumer performed %d log reads", delta)
	}
	// An append wakes the parked poll promptly.
	if _, err := f.Produce("", "lp", 0, []event.Event{{Value: []byte("wake")}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.evs) != 1 || string(r.evs[0].Value) != "wake" {
			t.Fatalf("parked poll woke with %v", r.evs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked poll did not wake on append")
	}
}

// TestStreamingConsumerEndToEnd drives the full SDK consumer (group,
// prefetch, long-poll) over a streaming connection, interleaving
// production and consumption.
func TestStreamingConsumerEndToEnd(t *testing.T) {
	f, addr, stop := startServer(t, true)
	defer stop()
	if _, err := f.CreateTopic("e2e", "", cluster.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	c, err := DialAnonymous(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cons := client.NewConsumer(c, client.ConsumerConfig{
		Group: "g-e2e", Start: client.StartEarliest, AutoCommit: true,
		Prefetch: true, PollWait: 200 * time.Millisecond,
	})
	defer cons.Close()
	if err := cons.Subscribe("e2e"); err != nil {
		t.Fatal(err)
	}
	const total = 900
	go func() {
		for i := 0; i < total; i += 30 {
			evs := make([]event.Event, 30)
			for j := range evs {
				evs[j] = event.Event{Key: []byte{byte(j)}, Value: []byte(fmt.Sprintf("m%d", i+j))}
			}
			if _, err := f.Produce("", "e2e", -1, evs, broker.AcksLeader); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	got := 0
	lastOff := map[int]int64{}
	deadline := time.Now().Add(20 * time.Second)
	for got < total && time.Now().Before(deadline) {
		evs, err := cons.Poll(64)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if prev, ok := lastOff[ev.Partition]; ok && ev.Offset != prev+1 {
				t.Fatalf("partition %d offsets not contiguous: %d after %d", ev.Partition, ev.Offset, prev)
			}
			lastOff[ev.Partition] = ev.Offset
			got++
		}
	}
	if got != total {
		t.Fatalf("consumed %d of %d", got, total)
	}
}
