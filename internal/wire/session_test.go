package wire

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/event"
)

// startSessServer is startServer exposing the *Server, so session tests
// can read its stream/session instrumentation.
func startSessServer(t *testing.T) (*broker.Fabric, *Server, string, func()) {
	t.Helper()
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
	return f, s, addr, s.Close
}

// sessionTopic provisions a topic and pre-produces n events into every
// partition, valued "p<part>-<i>" so consumers can verify routing.
func sessionTopic(t *testing.T, f *broker.Fabric, topic string, parts, n int) {
	t.Helper()
	if _, err := f.CreateTopic(topic, "", cluster.TopicConfig{Partitions: parts}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		evs := make([]event.Event, 0, 64)
		for i := 0; i < n; i++ {
			evs = append(evs, event.Event{Value: []byte(fmt.Sprintf("p%d-%d", p, i))})
			if len(evs) == 64 || i == n-1 {
				if _, err := f.Produce("", topic, p, evs, broker.AcksLeader); err != nil {
					t.Fatal(err)
				}
				evs = evs[:0]
			}
		}
	}
}

// sessWC returns the wireConn serving a topic-partition (white-box).
func (c *Client) sessWC(topic string, partition int) *wireConn {
	addr := c.dataAddr(topic, partition)
	c.mu.Lock()
	defer c.mu.Unlock()
	ep := c.eps[addr]
	if ep == nil {
		return nil
	}
	return ep.slots[c.slotFor(topic, partition)]
}

// sessSub returns the client-side session subscription serving a
// topic-partition, nil if none is live (white-box).
func (c *Client) sessSub(topic string, partition int) *clientSub {
	wc := c.sessWC(topic, partition)
	if wc == nil {
		return nil
	}
	wc.sessMu.Lock()
	sess := wc.session
	wc.sessMu.Unlock()
	if sess == nil {
		return nil
	}
	return sess.subFor(streamKey{topic, partition})
}

// TestSessionFetchMultiplexesPartitions is the tentpole's correctness
// anchor: one connection consuming many partitions rides exactly ONE
// fetch session (one server pump goroutine) with one subscription per
// partition — no per-partition streams — and every event still arrives
// in order with its value intact.
func TestSessionFetchMultiplexesPartitions(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	const parts, perPart = 8, 300
	sessionTopic(t, f, "ms", parts, perPart)
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Features()&FeatSessionFetch == 0 {
		t.Fatal("session fetch not negotiated on a current pairing")
	}

	var buf broker.FetchBuffer
	offs := make([]int64, parts)
	got := 0
	deadline := time.Now().Add(15 * time.Second)
	for got < parts*perPart && time.Now().Before(deadline) {
		for p := 0; p < parts; p++ {
			if offs[p] >= perPart {
				continue
			}
			res, err := c.FetchBufferedWait("", "ms", p, offs[p], 50, 1<<20, 50*time.Millisecond, &buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range res.Events {
				if ev.Offset != offs[p] {
					t.Fatalf("partition %d: offset %d, want %d", p, ev.Offset, offs[p])
				}
				if want := fmt.Sprintf("p%d-%d", p, offs[p]); string(ev.Value) != want {
					t.Fatalf("partition %d event %d: value %q, want %q", p, offs[p], ev.Value, want)
				}
				offs[p]++
				got++
			}
		}
	}
	if got != parts*perPart {
		t.Fatalf("consumed %d of %d", got, parts*perPart)
	}
	// One session, no streams: the whole fan-in shares a single pump.
	if n := s.met().sessionsOpen.Value(); n != 1 {
		t.Fatalf("%d sessions open, want exactly 1", n)
	}
	if n := s.met().streamsOpen.Value(); n != 0 {
		t.Fatalf("%d per-partition streams open, want 0", n)
	}
	for p := 0; p < parts; p++ {
		if c.sessSub("ms", p) == nil {
			t.Fatalf("partition %d not served by a session subscription", p)
		}
	}

	// Late data on a drained sub is pushed without a new subscription:
	// the armed append callback re-readies it inside the same session.
	if _, err := f.Produce("", "ms", 3, []event.Event{{Value: []byte("late")}}, broker.AcksLeader); err != nil {
		t.Fatal(err)
	}
	res, err := c.FetchBufferedWait("", "ms", 3, offs[3], 10, 1<<20, 5*time.Second, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 || string(res.Events[0].Value) != "late" {
		t.Fatalf("late event not pushed through the session: %v", res.Events)
	}
}

// TestSessionSeekResubscribes pins the seek path: a fetch at an offset
// other than the expected next one replaces the subscription (new sub
// ID, stale in-flight frames refunded) and serves the requested offset
// exactly — within the same session.
func TestSessionSeekResubscribes(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	sessionTopic(t, f, "sk", 1, 500)
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var buf broker.FetchBuffer
	var off int64
	for off < 200 {
		res, err := c.FetchBufferedWait("", "sk", 0, off, 64, 1<<20, time.Second, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) == 0 {
			t.Fatalf("no events at %d", off)
		}
		off = res.Events[len(res.Events)-1].Offset + 1
	}
	sub1 := c.sessSub("sk", 0)
	if sub1 == nil {
		t.Fatal("no session subscription before seek")
	}
	// Rewind: the session must resubscribe, not replay from 200.
	res, err := c.FetchBufferedWait("", "sk", 0, 10, 5, 1<<20, time.Second, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 || res.Events[0].Offset != 10 || string(res.Events[0].Value) != "p0-10" {
		t.Fatalf("seek to 10 served %v", res.Events)
	}
	sub2 := c.sessSub("sk", 0)
	if sub2 == nil || sub2 == sub1 {
		t.Fatal("seek did not replace the session subscription")
	}
	if n := s.met().sessionsOpen.Value(); n != 1 {
		t.Fatalf("%d sessions open after seek, want 1", n)
	}
}

// TestSessionCreditBoundsServerPush pins shared-window flow control: a
// consumer that stops consuming stalls the pump (genuine backpressure,
// counted as credit stalls) instead of letting the server buffer
// unboundedly — and consumption resumes exactly where it left off.
func TestSessionCreditBoundsServerPush(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	const total = 3000
	sessionTopic(t, f, "scb", 1, total)
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1, StreamWindowBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var buf broker.FetchBuffer
	// One small fetch opens the session and subscription; the server
	// then pushes until the 2 KiB window is spent and must park.
	res, err := c.FetchBufferedWait("", "scb", 0, 0, 10, 1<<20, time.Second, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("first session fetch returned no events below the HW")
	}
	off := res.Events[len(res.Events)-1].Offset + 1
	deadline := time.Now().Add(5 * time.Second)
	for s.met().creditStalls.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.met().creditStalls.Value() == 0 {
		t.Fatal("pump never stalled on credit with a full window of unconsumed data")
	}
	// The client-side demux queue is bounded by the window, not by the
	// 3000 events the log holds.
	sub := c.sessSub("scb", 0)
	if sub == nil {
		t.Fatal("no session subscription")
	}
	if q := sub.sess.queued.Load(); q > 2048+2 {
		t.Fatalf("client queued %d window-bytes of frames, want ≤ window", q)
	}

	// Resume: every remaining event arrives, in order, no gaps or dups.
	for off < total {
		res, err := c.FetchBufferedWait("", "scb", 0, off, 100, 1<<20, 5*time.Second, &buf)
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
	if s.met().pumpParks.Value() == 0 {
		t.Fatal("pump park counter never moved")
	}
}

// TestServerMetricsExposeSessionCounters pins the observability
// satellite: the server's registry snapshot names every stream/session
// counter so operators see them without code spelunking.
func TestServerMetricsExposeSessionCounters(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	sessionTopic(t, f, "mx", 1, 10)
	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf broker.FetchBuffer
	if _, err := c.FetchBufferedWait("", "mx", 0, 0, 10, 1<<20, time.Second, &buf); err != nil {
		t.Fatal(err)
	}
	snap := strings.Join(s.Metrics().Snapshot(), "\n")
	for _, name := range []string{
		"wire_sessions_open", "wire_streams_open",
		"wire_session_pump_parks", "wire_session_credit_stalls",
		"wire_meta_pushes",
	} {
		if !strings.Contains(snap, name) {
			t.Fatalf("metric %q missing from snapshot:\n%s", name, snap)
		}
	}
	if s.met().sessionsOpen.Value() != 1 {
		t.Fatalf("sessions gauge = %d, want 1", s.met().sessionsOpen.Value())
	}
}

// waitGoroutines polls until the process goroutine count returns to at
// most want, failing the test with a goroutine dump otherwise.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines: %d, want ≤ %d\n%s", runtime.NumGoroutine(), want, buf[:n])
}

// TestSessionGoroutineReleaseOnClose is the leak gate for the graceful
// path: N clients × P partitions of session consumption, then client
// close — server pumps, read loops, and client goroutines all return
// to the pre-dial baseline.
func TestSessionGoroutineReleaseOnClose(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	const clients, parts = 4, 16
	sessionTopic(t, f, "lk", parts, 5)
	base := runtime.NumGoroutine()

	var cs []*Client
	var buf broker.FetchBuffer
	for i := 0; i < clients; i++ {
		c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
		for p := 0; p < parts; p++ {
			if _, err := c.FetchBufferedWait("", "lk", p, 0, 5, 1<<20, time.Second, &buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := s.met().sessionsOpen.Value(); n != clients {
		t.Fatalf("%d sessions open, want %d", n, clients)
	}
	for _, c := range cs {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base)
	if n := s.met().sessionsOpen.Value(); n != 0 {
		t.Fatalf("%d sessions still open after close", n)
	}
}

// TestSessionGoroutineReleaseOnConnDrop is the leak gate for the
// ungraceful path: the TCP connection dies mid-session with no close
// frames — the server read loop's exit must still tear down every pump
// before the connection handler returns.
func TestSessionGoroutineReleaseOnConnDrop(t *testing.T) {
	f, s, addr, stop := startSessServer(t)
	defer stop()
	const parts = 16
	sessionTopic(t, f, "lkd", parts, 5)
	base := runtime.NumGoroutine()

	c, err := DialOptions(addr, Options{Anonymous: true, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf broker.FetchBuffer
	for p := 0; p < parts; p++ {
		if _, err := c.FetchBufferedWait("", "lkd", p, 0, 5, 1<<20, time.Second, &buf); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.met().sessionsOpen.Value(); n != 1 {
		t.Fatalf("%d sessions open, want 1", n)
	}
	wc := c.sessWC("lkd", 0)
	if wc == nil {
		t.Fatal("no wire connection")
	}
	// Abrupt drop: no SessionClose, no FIN-then-drain courtesy.
	_ = wc.conn.Close()
	waitGoroutines(t, base+2) // the dropped client's endpoint may linger until Close
	if n := s.met().sessionsOpen.Value(); n != 0 {
		t.Fatalf("%d sessions still open after connection drop", n)
	}
}
