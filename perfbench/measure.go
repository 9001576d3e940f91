package main

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/event"
)

// latencies collects per-event latency samples and when each event
// completed. batches counts the distinct acknowledgements or Poll
// returns the samples came from: events that shared one share a single
// measurement point.
type latencies struct {
	ns      []int64
	at      []int64
	batches int64
	sorted  []int64 // ns in order, built by the first quantile
}

func newLatencies(capacity int) *latencies {
	return &latencies{ns: make([]int64, 0, capacity), at: make([]int64, 0, capacity)}
}

func (l *latencies) add(at, ns int64) {
	l.at = append(l.at, at)
	l.ns = append(l.ns, ns)
}

// quantile is the nearest-rank q-quantile in milliseconds.
func (l *latencies) quantile(q float64) float64 {
	if len(l.sorted) != len(l.ns) {
		l.sorted = slices.Sorted(slices.Values(l.ns))
	}
	return nearestRank(l.sorted, q)
}

func (l *latencies) max() float64 { return l.quantile(1) }

// nearestRank is the q-quantile of sorted ns, in milliseconds (0 when
// empty).
func nearestRank(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(0, min(i, len(sorted)-1))]) / 1e6
}

// ackLog records acknowledged produces: per-event due→ack latency and
// exactly-once acknowledgement of every sequence number. The SDK's
// flusher goroutines report into it concurrently.
type ackLog struct {
	mu    sync.Mutex
	lat   *latencies
	seen  []uint8
	acked int64
	dup   int64
	last  int64
	// recycle, when set, takes back payload buffers whose batch is
	// acknowledged.
	recycle func([]byte)
}

func newAckLog(capacity int, recycle func([]byte)) *ackLog {
	return &ackLog{lat: newLatencies(capacity), seen: make([]uint8, 0, capacity), recycle: recycle}
}

func (a *ackLog) onAck(evs []event.Event, _, end int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lat.batches++
	a.last = end

	for i := range evs {
		v := evs[i].Value
		seq, due := stamp(v)
		for uint64(len(a.seen)) <= seq {
			a.seen = append(a.seen, 0)
		}
		a.seen[seq]++
		if a.seen[seq] > 1 {
			a.dup++
			continue
		}
		a.acked++
		a.lat.add(end, end-due)
		if a.recycle != nil {
			a.recycle(v)
		}
	}
}

func (a *ackLog) has(seq uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return seq < uint64(len(a.seen)) && a.seen[seq] > 0
}

// missing counts sequence numbers below n never acknowledged.
func (a *ackLog) missing(n int64) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var m int64
	for s := int64(0); s < n; s++ {
		if s >= int64(len(a.seen)) || a.seen[s] == 0 {
			m++
		}
	}
	return m
}

// usage is a process resource snapshot: CPU time, allocation totals and
// GC activity.
type usage struct {
	at         int64
	cpuNs      int64
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	gcPauseNs  uint64
}

func takeUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:         mono(),
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

// sampler calls fn at once and then every period until stopped.
type sampler struct {
	stop chan struct{}
	done sync.WaitGroup
}

func startSampler(period time.Duration, fn func()) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			fn()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) close() {
	close(s.stop)
	s.done.Wait()
}

// sliceLen is the length of the slices a window's end-to-end metrics
// are medians over, where the workload has no natural unit of its own
// (replay-64p slices by pass).
const sliceLen = time.Second

// cutter takes a usage snapshot every period: the slice boundaries of
// a window.
type cutter struct {
	start usage // the first cut, read-only
	mu    sync.Mutex
	cuts  []usage
	s     *sampler
}

func startCutter(period time.Duration) *cutter {
	u := takeUsage()
	c := &cutter{start: u, cuts: []usage{u}}
	c.s = startSampler(period, func() {
		u := takeUsage()
		c.mu.Lock()
		c.cuts = append(c.cuts, u)
		c.mu.Unlock()
	})
	return c
}

// stop ends sampling and returns every cut, the last taken now.
func (c *cutter) stop() []usage {
	c.s.close()
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(c.cuts, takeUsage())
}

// sliceStats are one slice's end-to-end figures.
type sliceStats struct {
	eps, p50, p99, cpuUs, allocs, allocBytes float64
}

// slicesOf splits a window at its cuts and computes each slice's
// figures from the events that completed in it. Slices shorter than
// half a slice length (the ragged end of a window) or without events
// are left out; a window with no whole slice is one slice.
func slicesOf(cuts []usage, lat *latencies) []sliceStats {
	k := len(cuts) - 1
	parts := make([][]int64, k)
	for i, at := range lat.at {
		j := sort.Search(k, func(j int) bool { return cuts[j+1].at > at })
		if j < k {
			parts[j] = append(parts[j], lat.ns[i])
		}
	}
	var out []sliceStats
	for j := 0; j < k; j++ {
		from, to := cuts[j], cuts[j+1]
		if len(parts[j]) == 0 || to.at-from.at < int64(sliceLen)/2 {
			continue
		}
		out = append(out, stats(from, to, parts[j]))
	}
	if len(out) == 0 {
		return []sliceStats{stats(cuts[0], cuts[k], slices.Clone(lat.ns))}
	}
	return out
}

func stats(from, to usage, ns []int64) sliceStats {
	slices.Sort(ns)
	n := float64(len(ns))
	return sliceStats{
		eps:        ratio(n, float64(to.at-from.at)/1e9),
		p50:        nearestRank(ns, 0.50),
		p99:        nearestRank(ns, 0.99),
		cpuUs:      ratio(float64(to.cpuNs-from.cpuNs)/1e3, n),
		allocs:     ratio(float64(to.mallocs-from.mallocs), n),
		allocBytes: ratio(float64(to.allocBytes-from.allocBytes), n),
	}
}

// medianOf is the median over slices of one figure.
func medianOf(ss []sliceStats, f func(sliceStats) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
