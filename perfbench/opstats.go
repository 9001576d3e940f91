package main

import (
	"fmt"
	"strings"

	"repro/internal/wire"
)

// statsView is the merged OpStats picture of a cluster: histograms and
// counters by name. The brokers of one clusternet share a fabric, so
// fabric-scoped series (broker, eventlog, replication) come back
// identical from every broker and are taken once; each wire server
// keeps its own registry ("wire_" series), which are summed.
type statsView struct {
	hists    map[string]wire.StatHist
	counters map[string]int64
	gauges   map[string]int64
}

func serverLocal(name string) bool { return strings.HasPrefix(name, "wire_") }

// scrape snapshots every broker through the public OpStats op.
func scrape(c *wire.Client, addrs []string) (statsView, error) {
	v := statsView{hists: map[string]wire.StatHist{}, counters: map[string]int64{}, gauges: map[string]int64{}}
	for i, addr := range addrs {
		resp, err := c.StatsAt(addr)
		if err != nil {
			return v, fmt.Errorf("stats from %s: %w", addr, err)
		}
		for _, h := range resp.Hists {
			if i == 0 || serverLocal(h.Name) {
				v.hists[h.Name] = addHist(v.hists[h.Name], h, 1)
			}
		}
		for _, e := range resp.Counters {
			if i == 0 || serverLocal(e.Name) {
				v.counters[e.Name] += e.Value
			}
		}
		for _, e := range resp.Gauges {
			if i == 0 || serverLocal(e.Name) {
				v.gauges[e.Name] += e.Value
			}
		}
	}
	return v, nil
}

// addHist returns a + sign*b bucket by bucket over the shared
// log-linear layout. The result's buckets stay sparse and ascending.
func addHist(a, b wire.StatHist, sign int64) wire.StatHist {
	out := wire.StatHist{Name: b.Name, Count: a.Count + sign*b.Count, Sum: a.Sum + sign*b.Sum}
	if out.Name == "" {
		out.Name = a.Name
	}
	i, j := 0, 0
	for i < len(a.Buckets) || j < len(b.Buckets) {
		var bk wire.StatBucket
		switch {
		case j >= len(b.Buckets) || (i < len(a.Buckets) && a.Buckets[i].Index < b.Buckets[j].Index):
			bk = a.Buckets[i]
			i++
		case i >= len(a.Buckets) || b.Buckets[j].Index < a.Buckets[i].Index:
			bk = wire.StatBucket{Index: b.Buckets[j].Index, Count: sign * b.Buckets[j].Count}
			j++
		default:
			bk = wire.StatBucket{Index: a.Buckets[i].Index, Count: a.Buckets[i].Count + sign*b.Buckets[j].Count}
			i++
			j++
		}
		if bk.Count != 0 {
			out.Buckets = append(out.Buckets, bk)
		}
	}
	return out
}

// delta is what happened between two scrapes of the same cluster.
func delta(before, after statsView) statsView {
	d := statsView{hists: map[string]wire.StatHist{}, counters: map[string]int64{}, gauges: after.gauges}
	for name, h := range after.hists {
		d.hists[name] = addHist(h, before.hists[name], -1)
	}
	for name, v := range after.counters {
		d.counters[name] = v - before.counters[name]
	}
	return d
}

// quantile of a histogram, scaled by div (1e6 turns ns into ms).
func (v statsView) quantile(name string, q, div float64) float64 {
	h := v.hists[name]
	return h.Quantile(q) / div
}

func (v statsView) mean(name string) float64 {
	h := v.hists[name]
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
