// Command perfbench is the repository's end-to-end benchmark. It runs
// a 3-broker clusternet with ISR pull replication in its own process
// and drives it from outside, through the shipping client path: SDK
// client.Producer → wire.Client (wire v2, metadata routing) →
// per-broker clusternet listeners → broker.Fabric → eventlog →
// replication at acks=all → fetch sessions → SDK client.Consumer. It
// checks that every event arrives intact and prints every metric by
// name with its unit; the last line of standard output is one JSON
// object.
//
//	perfbench --workload wan-sdl --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics. With
// --trace 1 the run measures an untraced window and then a traced one
// on the same cluster, and the JSON carries the per-layer metrics and
// the tracing overhead; the spans are written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setups is how many times a run builds the whole set-up; setup_s is
// the median, and the last one is measured. Set-up includes timer
// waits (a follower's first fetch backs off when it races topic
// creation), so one set-up alone varies by a fifth.
const setups = 9

// maxLateP99 is the open-loop generator's lateness beyond which a run
// is invalid: the schedule, not the system, would set the load.
const maxLateP99 = 20 * time.Millisecond

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	sc       scale
}

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
	report            []string
}

func main() {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: wan-sdl, bulk-dataauto or replay-64p")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: every payload byte and key derives from it")
	fs.IntVar(&cfg.seconds, "seconds", 15, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 = add a traced window and print per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".", "directory for span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 || cfg.seconds < 1 || workloadByName(cfg.workload) == nil {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload wan-sdl|bulk-dataauto|replay-64p, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.sc = defaultScale
	res, err := runBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runBench sets up, measures and checks one run.
func runBench(cfg config) (*result, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	debug.SetMemoryLimit(w.memLimit)
	g := newGen(cfg.seed, w.size, w.keys)
	var setupS, serveS []float64
	var b *bench
	for k := 0; k < setups; k++ {
		t0 := mono()
		fx, err := startFixture(w.spec, cfg.trace)
		if err != nil {
			return nil, err
		}
		b = &bench{w: w, sc: cfg.sc, g: g, fx: fx}
		if err = fx.warmUp(); err == nil && w.prepare != nil {
			err = w.prepare(b)
		}
		if err != nil {
			fx.close()
			return nil, err
		}
		setupS = append(setupS, float64(mono()-t0)/1e9)
		serveS = append(serveS, float64(fx.serveNs)/1e9)
		if k < setups-1 {
			fx.close()
		}
	}
	defer b.fx.close()

	d := time.Duration(cfg.seconds) * time.Second
	b.setupMisroutes = b.fx.cluster.Misroutes()
	plain, err := w.window(b, d)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	res := &result{}
	e2e := endToEnd(plain, median(setupS), rss)
	wins := []*window{plain}
	if cfg.trace {
		traced, err := b.tracedWindow(d)
		if err != nil {
			return nil, err
		}
		wins = append(wins, traced)
		te2e := endToEnd(traced, median(setupS), peakRSSMB())
		res.metrics = perLayer(b, traced, median(serveS))
		res.metrics = append(res.metrics, overhead(e2e, te2e)...)
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, cfg.seed))
		if err := traced.rec.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.report = append(res.report, "spans written to "+path)
	} else {
		res.metrics = e2e
	}

	// Whole-run checks: no request was misrouted while measuring, and
	// replication caught up everywhere once the load stopped.
	last := wins[len(wins)-1]
	last.fail(b.windowMisroutes(), "misrouted requests")
	last.fail(int64(b.fx.settle(5*time.Second)), "partitions whose high watermark never reached the log end")

	res.correct = true
	for i, win := range wins {
		res.attempted += win.attempted
		res.failed += win.failed
		for _, p := range win.problems {
			res.report = append(res.report, fmt.Sprintf("window %d: FAILED %s", i+1, p))
		}
		if win.late != nil && win.late.quantile(0.99) > float64(maxLateP99)/1e6 {
			res.correct = false
			res.report = append(res.report, fmt.Sprintf("window %d: INVALID load generator fell behind (late p99 %.2f ms)", i+1, win.late.quantile(0.99)))
		}
	}
	if res.failed > 0 || res.attempted == 0 {
		res.correct = false
	}
	res.report = append(res.report, detail(w, plain, median(setupS), rss, "whole window: ")...)
	if cfg.trace {
		res.report = append(res.report, detail(w, wins[1], median(setupS), peakRSSMB(), "whole traced window: ")...)
	}
	return res, nil
}

// tracedWindow repeats the workload's window with the span recorder
// on, bracketed by OpStats scrapes of every broker and sampled for
// peak goroutines and under-replicated partitions.
func (b *bench) tracedWindow(d time.Duration) (*window, error) {
	fx := b.fx
	addrs := fx.cluster.Addrs()
	sc := fx.statsC
	before, err := scrape(sc, addrs)
	if err != nil {
		return nil, err
	}
	b.rec = newRecorder()
	defer func() { b.rec = nil }()
	var peakG int
	var underMax int64
	var sampleErr error
	s := startSampler(200*time.Millisecond, func() {
		peakG = max(peakG, runtime.NumGoroutine())
		resp, err := sc.StatsAt(addrs[0])
		if err != nil {
			sampleErr = err
			return
		}
		for _, g := range resp.Gauges {
			if g.Name == "replication.under_replicated" {
				underMax = max(underMax, g.Value)
			}
		}
	})
	win, err := b.w.window(b, d)
	s.close()
	if err != nil {
		return nil, err
	}
	if sampleErr != nil {
		return nil, fmt.Errorf("stats sample: %w", sampleErr)
	}
	after, err := scrape(sc, addrs)
	if err != nil {
		return nil, err
	}
	win.stats = delta(before, after)
	win.goroutinesPeak = peakG
	win.underReplMax = underMax
	return win, nil
}

// windowMisroutes counts the requests misrouted since set-up ended.
// Set-up's own (the replica fetch loops' first pulls, which can race
// topic creation) are reported apart as clusternet.setup_misroutes.
func (b *bench) windowMisroutes() int64 { return b.fx.cluster.Misroutes() - b.setupMisroutes }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// delivered is the latency record of the workload's last stage, one
// sample per delivered event: acknowledgement for a produce-only
// workload, otherwise the Poll that returned the verified event.
func delivered(win *window) *latencies {
	if win.e2e == nil {
		return win.ack
	}
	return win.e2e
}

// endToEnd computes the metrics every workload reports, named as in
// BENCHMARK.json. Rates, latencies and per-event costs are medians over
// the window's slices, which keeps a noisy second from moving them.
func endToEnd(win *window, setupS, rssMB float64) []metric {
	ss := slicesOf(win.cuts, delivered(win))
	return []metric{
		{"setup_s", "s", setupS},
		{"delivered_eps", "1/s", medianOf(ss, func(s sliceStats) float64 { return s.eps })},
		{"delivery_p50_ms", "ms", medianOf(ss, func(s sliceStats) float64 { return s.p50 })},
		{"delivery_p99_ms", "ms", medianOf(ss, func(s sliceStats) float64 { return s.p99 })},
		{"cpu_us_per_event", "us", medianOf(ss, func(s sliceStats) float64 { return s.cpuUs })},
		{"allocs_per_event", "count", medianOf(ss, func(s sliceStats) float64 { return s.allocs })},
		{"alloc_bytes_per_event", "B", medianOf(ss, func(s sliceStats) float64 { return s.allocBytes })},
		{"peak_rss_mb", "MiB", rssMB},
	}
}

// detail renders a window's figures per stage (produce, ack, consume,
// e2e or replay) over the whole window, with sample counts, for the
// report lines.
func detail(w *workload, win *window, setupS, rssMB float64, prefix string) []string {
	var out []string
	add := func(name, unit string, v float64, extra string) {
		out = append(out, fmt.Sprintf("%s%s %s = %.6g %s%s", prefix, w.name, name, v, unit, extra))
	}
	lat := func(name string, l *latencies) {
		samples := fmt.Sprintf("  (%d events, %d batches)", len(l.ns), l.batches)
		add(name+"_p50_ms", "ms", l.quantile(0.50), samples)
		add(name+"_p99_ms", "ms", l.quantile(0.99), samples)
	}
	add("setup_s", "s", setupS, "")
	if win.ack != nil {
		add("produce_eps", "1/s", ratio(float64(win.produced), float64(win.produceSpan)/1e9), "")
		lat("ack", win.ack)
	}
	if win.e2e != nil {
		add("consume_eps", "1/s", ratio(float64(win.consumed), float64(win.consumeSpan)/1e9), "")
		if w.name == "replay-64p" {
			lat("replay", win.e2e)
			add("passes", "count", float64(win.passes), "")
		} else {
			lat("e2e", win.e2e)
		}
		add("empty_polls", "count", float64(win.empties), fmt.Sprintf("  of %d polls, %.3g s", win.polls, float64(win.emptyPollNs)/1e9))
	}
	add("failed_frac", "ratio", ratio(float64(win.failed), float64(win.attempted)), fmt.Sprintf("  (%d of %d)", win.failed, win.attempted))
	n := float64(len(delivered(win).ns))
	add("cpu_us_per_event", "us", ratio(float64(win.end.cpuNs-win.begin.cpuNs)/1e3, n), "")
	add("allocs_per_event", "count", ratio(float64(win.end.mallocs-win.begin.mallocs), n), "")
	add("alloc_bytes_per_event", "B", ratio(float64(win.end.allocBytes-win.begin.allocBytes), n), "")
	add("peak_rss_mb", "MiB", rssMB, "")
	return out
}

// overhead is, per end-to-end metric of the window, how much worse the
// traced window read than the untraced one, in percent (negative when
// it read better). Set-up is not traced, so it has no overhead.
func overhead(plain, traced []metric) []metric {
	higherBetter := map[string]bool{"delivered_eps": true}
	var out []metric
	for i, p := range plain {
		if p.name == "setup_s" {
			continue
		}
		t := traced[i].value
		var worse float64
		if higherBetter[p.name] {
			worse = ratio(p.value, t) - 1
		} else {
			worse = ratio(t, p.value) - 1
		}
		out = append(out, metric{"overhead." + p.name, "%", 100 * worse})
	}
	return out
}

func spanDurations(r *recorder, kinds ...uint8) (*latencies, float64) {
	l := newLatencies(0)
	var events float64
	for _, s := range r.spans {
		for _, k := range kinds {
			if s.kind == k {
				l.ns = append(l.ns, s.end-s.start)
				events += float64(s.events)
			}
		}
	}
	return l, events
}

// perLayer computes the traced window's per-layer metrics, named
// <module>.<metric> after the layer that does the work.
func perLayer(b *bench, win *window, serveS float64) []metric {
	r, st := win.rec, win.stats
	produce, produced := spanDurations(r, spanProduce)
	fetch, _ := spanDurations(r, spanFetch, spanFetchWait)
	polls, _ := spanDurations(r, spanPoll)
	var emptyFetches float64
	for _, s := range r.spans {
		if (s.kind == spanFetch || s.kind == spanFetchWait) && s.events == 0 {
			emptyFetches++
		}
	}
	pollSelf := &latencies{ns: r.selfTimes(spanPoll)}
	windowNs := float64(win.end.at - win.begin.at)
	late := win.late
	if late == nil {
		late = newLatencies(0)
	}
	nProduce, nFetch, nPoll := float64(len(produce.ns)), float64(len(fetch.ns)), float64(len(polls.ns))
	var pollEvents float64
	for _, s := range r.spans {
		if s.kind == spanPoll {
			pollEvents += float64(s.events)
		}
	}
	return []metric{
		{"client.producer.queue_p50_ms", "ms", r.queue.quantile(0.50)},
		{"client.producer.queue_p99_ms", "ms", r.queue.quantile(0.99)},
		{"client.producer.batch_events_mean", "events", ratio(produced, nProduce)},
		{"client.producer.retries", "count", float64(win.retries)},
		{"client.consumer.polls", "count", nPoll},
		{"client.consumer.empty_poll_ratio", "ratio", ratio(float64(win.empties), float64(win.polls))},
		{"client.consumer.empty_poll_share", "ratio", ratio(float64(win.emptyPollNs), windowNs)},
		{"client.consumer.poll_self_p50_ms", "ms", pollSelf.quantile(0.50)},
		{"client.consumer.events_per_poll_mean", "events", ratio(pollEvents, nPoll)},
		{"wire.produce_call_p50_ms", "ms", produce.quantile(0.50)},
		{"wire.produce_call_p99_ms", "ms", produce.quantile(0.99)},
		{"wire.fetch_calls", "count", nFetch},
		{"wire.fetch_call_p50_ms", "ms", fetch.quantile(0.50)},
		{"wire.fetch_call_p99_ms", "ms", fetch.quantile(0.99)},
		{"wire.empty_fetch_ratio", "ratio", ratio(emptyFetches, nFetch)},
		{"wire.server.produce_p50_ms", "ms", st.quantile("wire_produce_ns", 0.50, 1e6)},
		{"wire.session.pump_parks", "count", float64(st.counters["wire_session_pump_parks"])},
		{"wire.session.credit_stalls", "count", float64(st.counters["wire_session_credit_stalls"])},
		{"wire.session.batch_events_mean", "events", st.mean("wire_session_batch_events")},
		{"broker.produce_p50_ms", "ms", st.quantile("fabric.produce_ns", 0.50, 1e6)},
		{"broker.produce_p99_ms", "ms", st.quantile("fabric.produce_ns", 0.99, 1e6)},
		{"broker.append_p50_ms", "ms", st.quantile("fabric.append_ns", 0.50, 1e6)},
		{"broker.commit_wait_p50_ms", "ms", st.quantile("fabric.commit_wait_ns", 0.50, 1e6)},
		{"broker.commit_wait_p99_ms", "ms", st.quantile("fabric.commit_wait_ns", 0.99, 1e6)},
		{"broker.fetch_p50_ms", "ms", st.quantile("fabric.fetch_ns", 0.50, 1e6)},
		{"broker.produce_batch_events_mean", "events", st.mean("fabric.produce_batch_events")},
		{"eventlog.append_p50_us", "us", st.quantile("eventlog.append_ns", 0.50, 1e3)},
		{"eventlog.append_p99_us", "us", st.quantile("eventlog.append_ns", 0.99, 1e3)},
		{"eventlog.append_bytes_mean", "B", st.mean("eventlog.append_bytes")},
		{"replication.fetch_rtt_p50_ms", "ms", st.quantile("replication.fetch_rtt_ns", 0.50, 1e6)},
		{"replication.fetch_rtt_p99_ms", "ms", st.quantile("replication.fetch_rtt_ns", 0.99, 1e6)},
		{"replication.wait_committed_p50_ms", "ms", st.quantile("replication.wait_committed_ns", 0.50, 1e6)},
		{"replication.wait_committed_p99_ms", "ms", st.quantile("replication.wait_committed_ns", 0.99, 1e6)},
		{"replication.hw_advance_events_mean", "events", st.mean("replication.hw_advance_events")},
		{"replication.fetch_batch_events_mean", "events", st.mean("replication.fetch_batch_events")},
		{"replication.under_replicated_max", "count", float64(win.underReplMax)},
		{"clusternet.misroutes", "count", float64(b.windowMisroutes())},
		{"clusternet.setup_misroutes", "count", float64(b.setupMisroutes)},
		{"clusternet.serve_s", "s", serveS},
		{"loadgen.late_p99_ms", "ms", late.quantile(0.99)},
		{"loadgen.late_max_ms", "ms", late.max()},
		{"runtime.gc_cycles", "count", float64(win.end.numGC - win.begin.numGC)},
		{"runtime.gc_pause_total_ms", "ms", float64(win.end.gcPauseNs-win.begin.gcPauseNs) / 1e6},
		{"runtime.goroutines_peak", "count", float64(win.goroutinesPeak)},
		{"trace.spans_dropped", "count", float64(r.dropped)},
	}
}

// print writes the report lines, then the JSON result as the last line.
func (r *result) print(out io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	names := make([]string, 0, len(r.metrics))
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		ms[m.name] = value{v, m.unit}
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, line := range r.report {
		fmt.Fprintln(out, line)
	}
	for _, n := range names {
		fmt.Fprintf(out, "metric %s = %.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	js, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(js))
	return err
}
