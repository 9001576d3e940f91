package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/event"
)

// Span names: the calls the benchmark and the SDK make into each layer.
const (
	spanSend      = iota // Producer.Send, one span per burst of Sends
	spanFlush            // Producer.Flush
	spanProduce          // Transport.Produce (wire.Client)
	spanFetch            // Transport.FetchBuffered (wire.Client)
	spanFetchWait        // Transport.FetchBufferedWait (wire.Client)
	spanPoll             // Consumer.Poll
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"Producer.Send", "Producer.Flush", "Transport.Produce",
	"Transport.FetchBuffered", "Transport.FetchBufferedWait", "Consumer.Poll",
}

// span is one timed call. Spans of one batch (a Flush and the Produce
// calls it drives, a Poll and its fetches) share batch. events counts
// the events the call carried or returned.
type span struct {
	kind       uint8
	id, parent uint64
	batch      uint64
	start, end int64 // mono ns
	events     int32
}

// recorder keeps spans in memory during a traced window; write dumps
// them when the run ends. Untraced windows run the same code with a
// nil recorder, and the transport then records nothing.
type recorder struct {
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
	// queue counts each produced event's wait from its due time to the
	// start of the Transport.Produce call that carried it.
	queue queueHist
}

// queueHist is a histogram of 10 µs buckets up to 1 s (longer waits
// count in the last bucket): every produced event contributes, in
// constant memory.
type queueHist struct {
	buckets [100_000]int64
	n       int64
}

const queueBucketNs = 10_000

func (h *queueHist) add(ns int64) {
	h.buckets[min(max(ns, 0)/queueBucketNs, int64(len(h.buckets)-1))]++
	h.n++
}

// quantile is the upper edge of the bucket holding the nearest-rank
// q-quantile, in milliseconds (0 when empty).
func (h *queueHist) quantile(q float64) float64 {
	rank := int64(math.Ceil(q * float64(h.n)))
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if c > 0 && cum >= rank {
			return float64((int64(i)+1)*queueBucketNs) / 1e6
		}
	}
	return 0
}

// spanCap bounds a window's span memory; later spans are counted as
// dropped rather than growing the slice mid-window.
const spanCap = 1 << 18

func newRecorder() *recorder { return &recorder{spans: make([]span, 0, spanCap)} }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// write dumps every span as tab-separated text, one per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\tbatch\tstart_ns\tend_ns\tevents")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n", spanNames[s.kind], s.id, s.parent, s.batch, s.start, s.end, s.events)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span of kind, its duration minus the
// part of its interval covered by its child spans.
func (r *recorder) selfTimes(kind uint8) []int64 {
	children := make(map[uint64][][2]int64)
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	var out []int64
	for _, s := range r.spans {
		if s.kind == kind {
			out = append(out, s.end-s.start-covered(s.start, s.end, children[s.id]))
		}
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cur int64 = 0, lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// ackFunc observes a successfully acknowledged produce: the events it
// carried, and when the call started and returned.
type ackFunc func(evs []event.Event, start, end int64)

// timedTransport is a client.Transport (with the BufferedFetcher and
// WaitFetcher extensions) around the wire client. It times the calls
// the SDK makes into the wire layer as spans, and reports every
// acknowledged produce to onAck, which is how the benchmark learns when
// the batch carrying each event was acknowledged. Errors pass through
// unchanged.
type timedTransport struct {
	client.Transport
	wf    client.WaitFetcher
	rec   *recorder
	onAck ackFunc

	// parent is the span the caller is inside (a Flush or a Poll),
	// read by the calls the SDK makes on the caller's behalf.
	parent, batch atomic.Uint64
	failed        atomic.Int64
}

func newTimedTransport(t client.WaitFetcher, rec *recorder, onAck ackFunc) *timedTransport {
	tt := &timedTransport{wf: t, rec: rec, onAck: onAck}
	tt.Transport = t.(client.Transport)
	return tt
}

// within runs fn inside a span of kind. A Flush or Poll span is the
// parent of the transport calls made while it runs; fn returns the
// events the call handled, or -1 to keep events.
func (t *timedTransport) within(kind uint8, events int, fn func() int) {
	if t.rec == nil {
		fn()
		return
	}
	id := t.rec.ids.Add(1)
	parent := kind == spanFlush || kind == spanPoll
	if parent {
		t.parent.Store(id)
		t.batch.Store(id)
	}
	start := mono()
	n := fn()
	end := mono()
	if parent {
		t.parent.Store(0)
		t.batch.Store(0)
	}
	if n >= 0 {
		events = n
	}
	t.rec.add(span{kind: kind, id: id, batch: id, start: start, end: end, events: int32(events)})
}

func (t *timedTransport) child(kind uint8, start int64, events int) {
	if t.rec == nil {
		return
	}
	id, batch := t.rec.ids.Add(1), t.batch.Load()
	if batch == 0 {
		batch = id
	}
	t.rec.add(span{kind: kind, id: id, parent: t.parent.Load(), batch: batch, start: start, end: mono(), events: int32(events)})
}

func (t *timedTransport) Produce(identity, topic string, partition int, evs []event.Event, acks broker.Acks) (int64, error) {
	start := mono()
	off, err := t.Transport.Produce(identity, topic, partition, evs, acks)
	t.child(spanProduce, start, len(evs))
	if t.rec != nil {
		t.rec.mu.Lock()
		for i := range evs {
			_, due := stamp(evs[i].Value)
			t.rec.queue.add(start - due)
		}
		t.rec.mu.Unlock()
	}
	if err != nil {
		t.failed.Add(1)
		return off, err
	}
	if t.onAck != nil {
		t.onAck(evs, start, mono())
	}
	return off, nil
}

func (t *timedTransport) FetchBuffered(identity, topic string, partition int, offset int64, maxEvents, maxBytes int, buf *broker.FetchBuffer) (broker.FetchResult, error) {
	start := mono()
	res, err := t.wf.FetchBuffered(identity, topic, partition, offset, maxEvents, maxBytes, buf)
	t.child(spanFetch, start, len(res.Events))
	return res, err
}

func (t *timedTransport) FetchBufferedWait(identity, topic string, partition int, offset int64, maxEvents, maxBytes int, wait time.Duration, buf *broker.FetchBuffer) (broker.FetchResult, error) {
	start := mono()
	res, err := t.wf.FetchBufferedWait(identity, topic, partition, offset, maxEvents, maxBytes, wait, buf)
	t.child(spanFetchWait, start, len(res.Events))
	return res, err
}
