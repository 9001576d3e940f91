package main

import (
	"errors"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/event"
)

// failingTransport fails every data-plane call with err.
type failingTransport struct {
	client.Transport // nil: calls other than these panic
	err              error
}

func (f *failingTransport) Produce(string, string, int, []event.Event, broker.Acks) (int64, error) {
	return 0, f.err
}

func (f *failingTransport) FetchBuffered(string, string, int, int64, int, int, *broker.FetchBuffer) (broker.FetchResult, error) {
	return broker.FetchResult{}, f.err
}

func (f *failingTransport) FetchBufferedWait(string, string, int, int64, int, int, time.Duration, *broker.FetchBuffer) (broker.FetchResult, error) {
	return broker.FetchResult{}, f.err
}

// TestTimedTransportForwardsErrors: the timing wrapper returns the
// wrapped transport's errors unchanged, traced or not, and reports no
// acknowledgement for a failed produce.
func TestTimedTransportForwardsErrors(t *testing.T) {
	sentinel := &client.DeliveryError{Topic: "t", Events: 1, Err: broker.ErrNotEnoughReplicas}
	for _, rec := range []*recorder{nil, newRecorder()} {
		acked := 0
		tt := newTimedTransport(&failingTransport{err: sentinel}, rec, func([]event.Event, int64, int64) { acked++ })
		evs := make([]event.Event, 1)
		evs[0].Value = make([]byte, minPayload)
		if _, err := tt.Produce("", "t", 0, evs, broker.AcksAll); err != sentinel {
			t.Fatalf("Produce error %v, want %v", err, sentinel)
		}
		var buf broker.FetchBuffer
		if _, err := tt.FetchBuffered("", "t", 0, 0, 1, 0, &buf); err != sentinel {
			t.Fatalf("FetchBuffered error %v, want %v", err, sentinel)
		}
		if _, err := tt.FetchBufferedWait("", "t", 0, 0, 1, 0, time.Millisecond, &buf); !errors.Is(err, broker.ErrNotEnoughReplicas) || err != sentinel {
			t.Fatalf("FetchBufferedWait error %v, want %v", err, sentinel)
		}
		if acked != 0 || tt.failed.Load() != 1 {
			t.Fatalf("acked %d, failed %d after one failed produce; want 0, 1", acked, tt.failed.Load())
		}
		if rec != nil && len(rec.spans) != 3 {
			t.Fatalf("traced wrapper recorded %d spans, want 3", len(rec.spans))
		}
	}
}

// TestSelfTime: a span's self time excludes the union of its
// children's intervals, overlapping or not.
func TestSelfTime(t *testing.T) {
	rec := newRecorder()
	rec.add(span{kind: spanPoll, id: 1, start: 0, end: 100})
	rec.add(span{kind: spanFetch, id: 2, parent: 1, start: 10, end: 30})
	rec.add(span{kind: spanFetch, id: 3, parent: 1, start: 20, end: 40})
	rec.add(span{kind: spanFetchWait, id: 4, parent: 1, start: 90, end: 120})
	if got := rec.selfTimes(spanPoll); len(got) != 1 || got[0] != 100-30-10 {
		t.Fatalf("self times %v, want [60]", got)
	}
}

// TestQueueHist: quantiles land on the upper edge of the 10 µs bucket
// holding the nearest-rank sample.
func TestQueueHist(t *testing.T) {
	var h queueHist
	for i := int64(1); i <= 100; i++ {
		h.add(i * 1000_000) // 1..100 ms
	}
	h.add(5 * 1e9) // beyond the last bucket
	if got := h.quantile(0.5); got != 51.01 {
		t.Errorf("p50 %v ms, want 51.01", got)
	}
	if got := h.quantile(1); got != 1000 {
		t.Errorf("max %v ms, want 1000", got)
	}
}
