package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/event"
)

// scale holds the sizes a workload runs at. The benchmark uses
// defaultScale; the smoke test shrinks it.
type scale struct {
	sdlRate         int // wan-sdl offered load, events/s
	replayPerPart   int // replay-64p preload, events per partition
	bulkSendsPerRnd int // bulk-dataauto Sends per Flush
}

var defaultScale = scale{sdlRate: 30000, replayPerPart: 2048, bulkSendsPerRnd: 512}

// pollWait is the long-poll every SDK consumer here uses: the value
// octopus-bench -stream uses.
const pollWait = 50 * time.Millisecond

// passTimeout bounds one replay pass.
const passTimeout = 30 * time.Second

// drainTimeout bounds how long a window waits, after its load stops,
// for the last events to be consumed. Events still missing then count
// as failed.
const drainTimeout = 10 * time.Second

// workload is one traffic mix over the fixed cluster.
type workload struct {
	name string
	spec fixtureSpec
	size int // payload bytes
	keys int // distinct keys, 0 = unkeyed
	// memLimit is the soft memory limit the run sets (runtime/debug).
	memLimit int64
	// prepare runs after the fixture's warm-up and is part of set-up.
	prepare func(b *bench) error
	// window drives the load for the given duration.
	window func(b *bench, d time.Duration) (*window, error)
}

var workloads = []*workload{
	// wan-sdl: remote instruments. An open loop at a fixed rate of
	// 512 B keyed events over 2 ms links, so round trips, linger and the
	// replication commit wait dominate while per-event CPU is small.
	{
		name: "wan-sdl",
		spec: fixtureSpec{topic: "sdl", partitions: 6, retention: 2 * time.Second, sweep: 250 * time.Millisecond, linkDelay: 2 * time.Millisecond},
		size: 512, keys: 64, memLimit: 1 << 30,
		window: (*bench).wanSDL,
	},
	// bulk-dataauto: data automation ingest. A closed loop of full 4 KB
	// batches on loopback with no consumer, so wire copies, log append
	// and replica fetch dominate; linger and the consume path are
	// bypassed.
	{
		name: "bulk-dataauto",
		spec: fixtureSpec{topic: "bulk", partitions: 6, retention: 100 * time.Millisecond, sweep: 50 * time.Millisecond},
		size: 4096, memLimit: 2 << 30,
		window: (*bench).bulk,
	},
	// replay-64p: restarting a workflow from history. A read-only
	// replay of a retained 64-partition log over fetch sessions, so
	// session push, log reads and Poll scheduling dominate; produce and
	// replication are bypassed.
	{
		name: "replay-64p",
		spec: fixtureSpec{topic: "replay", partitions: 64},
		size: 1024, memLimit: 2 << 30,
		prepare: (*bench).preload,
		window:  (*bench).replay,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// bench is one run's state: the fixture it set up and what its
// windows need.
type bench struct {
	w   *workload
	sc  scale
	g   *gen
	fx  *fixture
	rec *recorder // nil in untraced windows
	// start is each partition's first workload offset in replay-64p's
	// log (the warm-up events sit below it).
	start map[int]int64
	// preloaded counts replay-64p's preloaded events.
	preloaded int64
	// setupMisroutes is the cluster's misroute count when set-up ended.
	setupMisroutes int64
}

// window is what one timed window measured.
type window struct {
	mu         sync.Mutex // guards failed and problems
	begin, end usage
	// cuts are the slice boundaries, begin and end included: every
	// sliceLen, or every replay pass.
	cuts           []usage
	attempted      int64
	failed         int64
	problems       []string
	produced       int64 // acknowledged events
	consumed       int64 // distinct verified events returned by Poll
	produceSpan    int64 // ns from window start to the last ack
	consumeSpan    int64 // ns from window start to the last Poll that returned new events
	ack, e2e       *latencies
	late           *latencies
	polls, empties int64
	emptyPollNs    int64
	retries        int64
	passes         int
	rec            *recorder
	goroutinesPeak int
	underReplMax   int64
	stats          statsView
}

func (w *window) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failed += n
	w.problems = append(w.problems, fmt.Sprintf("%d × "+format, append([]any{n}, args...)...))
}

func (w *window) setCuts(cuts []usage) {
	w.cuts = cuts
	w.begin, w.end = cuts[0], cuts[len(cuts)-1]
}

// poll runs one Consumer.Poll inside a span, counting empty polls.
func (b *bench) poll(tt *timedTransport, cons *client.Consumer, w *window) ([]event.Event, int64, error) {
	var evs []event.Event
	var err error
	start := mono()
	tt.within(spanPoll, 0, func() int {
		evs, err = cons.Poll(0)
		return len(evs)
	})
	now := mono()
	w.polls++
	if len(evs) == 0 {
		w.empties++
		w.emptyPollNs += now - start
	}
	return evs, now, err
}

// wanSDL: one generator goroutine offers rate events/s on a fixed
// schedule (open loop) to one SDK producer at acks=all; one SDK
// consumer tails every partition. Latency runs from each event's due
// time, so a stall also charges the events queued behind it.
func (b *bench) wanSDL(d time.Duration) (*window, error) {
	fx, g := b.fx, b.g
	rate := b.sc.sdlRate
	expect := int(float64(rate)*d.Seconds()*1.1) + 1024
	w := &window{e2e: newLatencies(expect), late: newLatencies(expect), rec: b.rec}
	pool := &bufPool{size: g.size}
	acks := newAckLog(expect, pool.put)
	start, err := fx.endOffsets(fx.consC)
	if err != nil {
		return nil, err
	}
	prodT := newTimedTransport(fx.prodC, b.rec, acks.onAck)
	consT := newTimedTransport(fx.consC, b.rec, nil)
	cons := client.NewConsumer(consT, client.ConsumerConfig{Start: client.StartLatest, PollWait: pollWait})
	defer cons.Close()
	if err := cons.Assign(fx.spec.topic, fx.allPartitions()...); err != nil {
		return nil, err
	}
	prod := client.NewProducer(prodT, fx.spec.topic, client.ProducerConfig{Acks: broker.AcksAll})
	led := newLedger(g, expect, start)

	fx.startSweeping()
	var sent atomic.Int64
	var genDone atomic.Bool
	var consErr error
	var wg sync.WaitGroup
	cut := startCutter(sliceLen)
	t0 := cut.start.at
	wg.Add(1)
	go func() {
		defer wg.Done()
		var drainBy int64
		for {
			if genDone.Load() {
				if led.got >= sent.Load() {
					return
				}
				if drainBy == 0 {
					drainBy = mono() + int64(drainTimeout)
				} else if mono() > drainBy {
					return
				}
			}
			evs, now, err := b.poll(consT, cons, w)
			if err != nil {
				consErr = fmt.Errorf("poll: %w", err)
				return
			}
			fresh := false
			for i := range evs {
				due, ok := led.record(evs[i].Partition, evs[i].Offset, evs[i].Value)
				if ok {
					w.e2e.add(now, now-due)
					fresh = true
				}
			}
			if fresh {
				w.e2e.batches++
				w.consumeSpan = now - t0
			}
		}
	}()

	tEnd := t0 + int64(d)
	var i uint64
	for {
		now := mono()
		if now >= tEnd {
			break
		}
		n := 0
		prodT.within(spanSend, 0, func() int {
			for ; ; i++ {
				due := t0 + int64(i*1e9/uint64(rate))
				if due > now || due >= tEnd {
					break
				}
				buf := pool.get()
				g.fill(buf, i, due)
				if err := prod.Send(event.Event{Key: g.key(i), Value: buf}); err != nil {
					w.fail(1, "Send: %v", err)
				}
				w.late.add(now, now-due)
				n++
			}
			return n
		})
		sent.Add(int64(n))
		if next := t0 + int64(i*1e9/uint64(rate)); next > mono() {
			time.Sleep(time.Duration(next - mono()))
		}
	}
	prodT.within(spanFlush, 0, func() int {
		if err := prod.Flush(); err != nil {
			w.fail(1, "Flush: %v", err)
		}
		return -1
	})
	if err := prod.Close(); err != nil {
		w.fail(1, "producer Close: %v", err)
	}
	genDone.Store(true)
	wg.Wait()
	w.setCuts(cut.stop())
	fx.stopSweeping()
	if consErr != nil {
		return nil, consErr
	}

	w.attempted = int64(i)
	w.produced = acks.acked
	w.ack = acks.lat
	w.produceSpan = acks.last - t0
	w.consumed = led.got
	w.retries = prodT.failed.Load()
	w.fail(acks.dup, "duplicate acknowledgements")
	w.fail(acks.missing(int64(i)), "events never acknowledged")
	w.fail(led.dup, "duplicate deliveries")
	w.fail(led.corrupt, "corrupt payloads")
	w.fail(led.gaps, "offset gaps")
	w.fail(led.missing(int64(i)), "events never consumed")
	return w, nil
}

// bulk: two generator goroutines, each owning an SDK producer on the
// shared producer client, repeatedly Send a round of 4 KB unkeyed
// events and Flush (closed loop). Latency runs from Send to the
// acknowledgement of the batch that carried the event.
func (b *bench) bulk(d time.Duration) (*window, error) {
	fx, g := b.fx, b.g
	const gens = 2
	per := b.sc.bulkSendsPerRnd
	expect := int(200000*d.Seconds()) + 4096
	acks := newAckLog(expect, nil)
	w := &window{rec: b.rec}
	start, err := fx.endOffsets(fx.prodC)
	if err != nil {
		return nil, err
	}
	sent := make([]uint64, gens)
	var retries atomic.Int64
	var wg sync.WaitGroup
	fx.startSweeping()
	cut := startCutter(sliceLen)
	t0 := cut.start.at
	tEnd := t0 + int64(d)
	for k := 0; k < gens; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tt := newTimedTransport(fx.prodC, b.rec, acks.onAck)
			prod := client.NewProducer(tt, fx.spec.topic, client.ProducerConfig{Acks: broker.AcksAll})
			bufs := make([][]byte, per)
			for j := range bufs {
				bufs[j] = make([]byte, g.size)
			}
			var n uint64
			for mono() < tEnd {
				tt.within(spanSend, per, func() int {
					for j := range bufs {
						seq := uint64(k) + gens*n
						g.fill(bufs[j], seq, mono())
						_ = prod.Send(event.Event{Value: bufs[j]}) // fails only once closed
						n++
					}
					return per
				})
				// The buffers are reused only after Flush returns, when
				// every batch carrying them has been acknowledged.
				tt.within(spanFlush, 0, func() int {
					if err := prod.Flush(); err != nil {
						w.fail(1, "Flush: %v", err)
					}
					return -1
				})
			}
			if err := prod.Close(); err != nil {
				w.fail(1, "producer Close: %v", err)
			}
			sent[k] = n
			retries.Add(tt.failed.Load())
		}(k)
	}
	wg.Wait()
	w.setCuts(cut.stop())
	fx.stopSweeping()

	// Generator k used sequence numbers k, k+2, k+4, ...
	var total, unacked int64
	for k := 0; k < gens; k++ {
		total += int64(sent[k])
		for j := uint64(0); j < sent[k]; j++ {
			if !acks.has(uint64(k) + gens*j) {
				unacked++
			}
		}
	}
	w.fail(unacked, "events never acknowledged")
	w.attempted = total
	w.produced = acks.acked
	w.ack = acks.lat
	w.produceSpan = acks.last - t0
	w.retries = retries.Load()
	w.fail(acks.dup, "duplicate acknowledgements")
	if err := b.checkAppended(w, start, acks); err != nil {
		return nil, err
	}
	return w, nil
}

// checkAppended verifies, after a produce-only window, that the
// partitions grew by exactly the acknowledged events and that the
// newest events of every partition read back intact, in contiguous
// offsets, with acknowledged sequence numbers.
func (b *bench) checkAppended(w *window, start map[int]int64, acks *ackLog) error {
	fx := b.fx
	end, err := fx.endOffsets(fx.prodC)
	if err != nil {
		return err
	}
	var grown int64
	for p, e := range end {
		grown += e - start[p]
	}
	if grown != w.produced {
		w.fail(max(grown-w.produced, w.produced-grown), "events appended vs acknowledged (%d appended)", grown)
	}
	const tail = 64
	for p, e := range end {
		from := max(start[p], e-tail)
		res, err := fx.consC.Fetch("", fx.spec.topic, p, from, tail, 0)
		if err != nil {
			return fmt.Errorf("tail read of partition %d: %w", p, err)
		}
		if int64(len(res.Events)) != e-from {
			w.fail(e-from-int64(len(res.Events)), "tail events unreadable on partition %d", p)
		}
		for i, ev := range res.Events {
			if ev.Offset != from+int64(i) {
				w.fail(1, "tail offset gap on partition %d", p)
			}
			if seq, _, ok := b.g.check(ev.Value); !ok {
				w.fail(1, "corrupt tail payload on partition %d", p)
			} else if !acks.has(seq) {
				w.fail(1, "unacknowledged tail event on partition %d", p)
			}
		}
	}
	return nil
}

// preload fills replay-64p's log at acks=all before the window: two
// goroutines on the producer client each produce to half the
// partitions, in batches of preloadBatch events.
func (b *bench) preload() error {
	fx, g := b.fx, b.g
	start, err := fx.endOffsets(fx.consC)
	if err != nil {
		return err
	}
	b.start = start
	per := b.sc.replayPerPart
	parts := fx.spec.partitions
	const gens, preloadBatch = 2, 256
	errs := make([]error, gens)
	var wg sync.WaitGroup
	for k := 0; k < gens; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			batch := make([]event.Event, 0, preloadBatch)
			for i := 0; i < per; i += preloadBatch {
				for p := k; p < parts; p += gens {
					batch = batch[:0]
					for j := i; j < min(i+preloadBatch, per); j++ {
						buf := make([]byte, g.size)
						g.fill(buf, uint64(j*parts+p), mono())
						batch = append(batch, event.Event{Value: buf})
					}
					if _, err := fx.prodC.Produce("", fx.spec.topic, p, batch, broker.AcksAll); err != nil {
						errs[k] = err
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	b.preloaded = int64(per * parts)
	if n := fx.settle(30 * time.Second); n > 0 {
		return fmt.Errorf("preload: %d partitions never reached HW = log end", n)
	}
	return nil
}

// replay: repeated passes, each a fresh SDK consumer assigned all 64
// partitions from StartEarliest that reads the whole preload. Latency
// runs from the pass start to the Poll that returned the event.
func (b *bench) replay(d time.Duration) (*window, error) {
	fx := b.fx
	n := b.preloaded
	w := &window{e2e: newLatencies(int(float64(n) * (d.Seconds()/1.5 + 2))), rec: b.rec}
	consT := newTimedTransport(fx.consC, b.rec, nil)
	led := newLedger(b.g, int(n), b.start)
	cuts := []usage{takeUsage()}
	t0 := cuts[0].at
	for mono()-t0 < int64(d) || w.passes == 0 {
		led.reset()
		p0 := mono()
		cons := client.NewConsumer(consT, client.ConsumerConfig{Start: client.StartEarliest, PollWait: pollWait})
		if err := cons.Assign(fx.spec.topic, fx.allPartitions()...); err != nil {
			return nil, err
		}
		for led.got < n && mono()-p0 < int64(passTimeout) {
			evs, now, err := b.poll(consT, cons, w)
			if err != nil {
				return nil, fmt.Errorf("poll: %w", err)
			}
			fresh := false
			for i := range evs {
				if _, ok := led.record(evs[i].Partition, evs[i].Offset, evs[i].Value); ok {
					w.e2e.add(now, now-p0)
					fresh = true
				}
			}
			if fresh {
				w.e2e.batches++
				w.consumeSpan = now - t0
			}
		}
		cons.Close()
		w.passes++
		w.attempted += n
		w.consumed += led.got
		w.fail(led.dup, "duplicate deliveries")
		w.fail(led.corrupt, "corrupt payloads")
		w.fail(led.gaps, "offset gaps")
		w.fail(led.missing(n), "events never consumed")
		cuts = append(cuts, takeUsage())
	}
	w.setCuts(cuts)
	return w, nil
}
