package wire

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"testing"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/replication"
)

// Server data-path allocation bounds, per request, net of what the logs
// keep (see BenchmarkServerDataPathAllocs). Measured on a 2-vCPU x86-64
// host with go1.24: produce 3.03 allocs and 160 B, replica fetch and
// fetch 3.00 allocs and 272 B and 288 B: the handler goroutine's two
// closures and the response header struct. Allocation bounds sit a
// tenth of an object above, byte bounds about 5% above.
const (
	produceAllocsBound = 3.1
	produceBytesBound  = 170
	replicaAllocsBound = 3.1
	replicaBytesBound  = 285
	fetchAllocsBound   = 3.1
	fetchBytesBound    = 300
)

// rawConn is a minimal v2 client for the allocation gate: one
// connection, strictly one request at a time, every buffer reused, and
// response bodies checked by their prefix only — so the process-wide
// allocation counters measure the server, not the client.
type rawConn struct {
	conn net.Conn
	rd   *bufio.Reader
	out  frameVec
	hdr  []byte
	data []byte
	corr uint64
}

func dialRaw(b *testing.B, addr string) *rawConn {
	b.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	if err := WriteFrame(conn, &Request{Op: OpNegotiate, Corr: 1, MaxVersion: ProtocolV2, Features: allFeatures}, nil); err != nil {
		b.Fatal(err)
	}
	rc := &rawConn{conn: conn, rd: bufio.NewReaderSize(conn, 64<<10), corr: 1}
	var nresp Response
	if _, err := ReadFrame(rc.rd, &nresp); err != nil {
		b.Fatal(err)
	}
	if nresp.Version != ProtocolV2 || nresp.Features&FeatReplication == 0 {
		b.Fatalf("negotiation = v%d feats %x", nresp.Version, nresp.Features)
	}
	return rc
}

// do sends one request and reads its response into the reused buffers,
// returning the response body and payload.
func (rc *rawConn) do(req ReqMsg, evs []event.Event) ([]byte, []byte, error) {
	rc.corr++
	if err := rc.out.appendRequestV2(rc.corr, req, evs); err != nil {
		return nil, nil, err
	}
	err := rc.out.writeTo(rc.conn)
	rc.out.reset()
	if err != nil {
		return nil, nil, err
	}
	hb, err := readHeaderInto(rc.rd, &rc.hdr)
	if err != nil {
		return nil, nil, err
	}
	op, code, corr, body, err := decodeRespPrefixV2(hb)
	if err != nil {
		return nil, nil, err
	}
	data, err := ReadPayloadInto(rc.rd, rc.data)
	if err != nil {
		return nil, nil, err
	}
	if cap(data) > cap(rc.data) {
		rc.data = data
	}
	if op != req.V2Op() || corr != rc.corr || code != codeOK {
		return nil, nil, fmt.Errorf("response op %d corr %d code %d to request op %d corr %d", op, corr, code, req.V2Op(), rc.corr)
	}
	return body, data, nil
}

// dataPathCost is one path's per-request allocation cost, net of what
// the logs keep.
type dataPathCost struct{ allocs, bytes float64 }

// measureDataPath runs op in rounds and returns the cheapest round's
// per-op cost. Objects and bytes still live after a GC at the end of a
// round — log arenas and records arrays — are subtracted: the result is
// the garbage a request leaves. The minimum over rounds filters
// background allocation (timers, GC metadata) that can only inflate one.
func measureDataPath(b *testing.B, op func() error) dataPathCost {
	b.Helper()
	const rounds, ops = 3, 600
	var best dataPathCost
	for r := 0; r < rounds; r++ {
		var m0, m1, m2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < ops; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		runtime.GC()
		runtime.ReadMemStats(&m2)
		keptObjs := max(int64(m2.HeapObjects)-int64(m0.HeapObjects), 0)
		keptBytes := max(int64(m2.HeapAlloc)-int64(m0.HeapAlloc), 0)
		c := dataPathCost{
			allocs: float64(int64(m1.Mallocs-m0.Mallocs)-keptObjs) / ops,
			bytes:  float64(int64(m1.TotalAlloc-m0.TotalAlloc)-keptBytes) / ops,
		}
		if r == 0 || c.allocs < best.allocs {
			best.allocs = c.allocs
		}
		if r == 0 || c.bytes < best.bytes {
			best.bytes = c.bytes
		}
	}
	return best
}

// BenchmarkServerDataPathAllocs gates the garbage the wire server makes
// per request on its three data paths, over loopback TCP against one
// server with a replication Tracker attached: an acks=leader produce of
// 16 keyed 512 B events (decode plus append), a follower's replica
// fetch of 64 events, and a consumer fetch of 64 events. A raw client
// that reuses every buffer drives each path (rawConn), so the numbers
// are the server's. What the logs keep is not counted: the produce
// frame, which becomes the batch's arena, and the records arrays. It
// fails when a path exceeds its bound.
func BenchmarkServerDataPathAllocs(b *testing.B) {
	f := broker.NewFabric(nil)
	if err := f.AddBrokers(2, 2, 8); err != nil {
		b.Fatal(err)
	}
	meta, err := f.CreateTopic("dp", "", cluster.TopicConfig{Partitions: 1, ReplicationFactor: 2})
	if err != nil {
		b.Fatal(err)
	}
	f.SetReplicator(replication.NewTracker(f, replication.Config{}))
	srv := NewServer(f)
	srv.AllowAnonymous = true
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	rc := dialRaw(b, addr)

	batch := make([]event.Event, 16)
	for i := range batch {
		batch[i] = event.Event{Key: []byte(fmt.Sprintf("instrument-%02d", i)), Value: make([]byte, 512)}
	}
	produce := &ProduceReq{Topic: "dp", Acks: int(broker.AcksLeader), NumEvents: len(batch)}
	produceOp := func() error {
		_, _, err := rc.do(produce, batch)
		return err
	}
	// Warm up past the first segment roll: from then on every segment
	// sizes its records array once, and a regrown one shows as garbage.
	for i := 0; i < 800; i++ {
		if err := produceOp(); err != nil {
			b.Fatal(err)
		}
	}
	follower := meta.Partitions[0].Replicas[0]
	if follower == meta.Partitions[0].Leader {
		follower = meta.Partitions[0].Replicas[1]
	}
	_, epoch, err := f.LeaderLogInfo("dp", 0)
	if err != nil {
		b.Fatal(err)
	}
	replica := &ReplicaFetchReq{Topic: "dp", Follower: follower, LeaderEpoch: epoch, MaxEvents: 64, MaxBytes: 1 << 20}
	replicaOp := func() error {
		_, _, err := rc.do(replica, nil)
		return err
	}
	fetch := &FetchReq{Topic: "dp", MaxEvents: 64}
	fetchOp := func() error {
		_, _, err := rc.do(fetch, nil)
		return err
	}
	// Check once, outside the measurement, that the fetches carry data.
	for _, q := range []struct {
		req  ReqMsg
		resp Msg
	}{{replica, &ReplicaFetchResp{}}, {fetch, &FetchResp{}}} {
		body, data, err := rc.do(q.req, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := q.resp.DecodeBody(body); err != nil {
			b.Fatal(err)
		}
		if evs, err := DecodeEvents(data, 64); err != nil || len(evs) != 64 {
			b.Fatalf("%T served %d events, %v", q.req, len(evs), err)
		}
	}

	costs := []struct {
		name          string
		op            func() error
		allocs, bytes float64
	}{
		{"produce", produceOp, produceAllocsBound, produceBytesBound},
		{"replica", replicaOp, replicaAllocsBound, replicaBytesBound},
		{"fetch", fetchOp, fetchAllocsBound, fetchBytesBound},
	}
	got := make([]dataPathCost, len(costs))
	for i, c := range costs {
		got[i] = measureDataPath(b, c.op)
		if got[i].allocs > c.allocs || got[i].bytes > c.bytes {
			b.Errorf("%s: %.2f allocs, %.0f B per request not kept by a log; bound %.0f allocs, %.0f B",
				c.name, got[i].allocs, got[i].bytes, c.allocs, c.bytes)
		}
	}
	if b.Failed() {
		b.FailNow()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range costs {
			if err := c.op(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	// Reported after the timed loop: ResetTimer deletes user metrics.
	for i, c := range costs {
		b.ReportMetric(got[i].allocs, c.name+"_allocs/op")
		b.ReportMetric(got[i].bytes, c.name+"_B/op")
	}
}
