package main

import (
	"testing"

	"repro/internal/wire"
)

// TestHistDeltaQuantiles: subtracting an earlier snapshot bucket by
// bucket leaves exactly the observations made in between, so the
// delta's quantiles equal wire.StatHist.Quantile on those alone.
func TestHistDeltaQuantiles(t *testing.T) {
	before := wire.StatHist{Name: "h", Count: 7, Sum: 900, Buckets: []wire.StatBucket{{Index: 3, Count: 2}, {Index: 40, Count: 5}}}
	window := wire.StatHist{Name: "h", Count: 110, Sum: 123456, Buckets: []wire.StatBucket{
		{Index: 3, Count: 10}, {Index: 41, Count: 50}, {Index: 200, Count: 49}, {Index: 517, Count: 1},
	}}
	after := addHist(before, window, 1)
	d := delta(statsView{hists: map[string]wire.StatHist{"h": before}},
		statsView{hists: map[string]wire.StatHist{"h": after}})
	got := d.hists["h"]
	if got.Count != window.Count || got.Sum != window.Sum || len(got.Buckets) != len(window.Buckets) {
		t.Fatalf("delta %+v, want %+v", got, window)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		if g, w := got.Quantile(q), window.Quantile(q); g != w {
			t.Errorf("q%.3f: delta quantile %v, want %v", q, g, w)
		}
	}
	if m := d.mean("h"); m != float64(window.Sum)/float64(window.Count) {
		t.Errorf("mean %v", m)
	}
}
