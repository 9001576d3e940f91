package eventlog

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/event"
)

// sizedEv returns an event with a payload of exactly n bytes.
func sizedEv(n int, tag string) event.Event {
	v := make([]byte, n)
	copy(v, tag)
	return event.Event{Value: v}
}

func TestAppendBatchSpansSegments(t *testing.T) {
	l := New(Config{SegmentEvents: 10})
	batch := make([]event.Event, 35) // spans 4 segments at 10 records each
	for i := range batch {
		batch[i] = ev(fmt.Sprintf("e%d", i))
	}
	base, err := l.AppendBatch(batch, t0)
	if err != nil {
		t.Fatal(err)
	}
	if base != 0 {
		t.Fatalf("base = %d", base)
	}
	if got := len(l.segments); got != 4 {
		t.Fatalf("segments = %d, want 4", got)
	}
	for i, seg := range l.segments {
		if seg.baseOffset != int64(i*10) {
			t.Fatalf("segment %d baseOffset = %d, want %d", i, seg.baseOffset, i*10)
		}
		sealed := i < 3
		if seg.sealed != sealed {
			t.Fatalf("segment %d sealed = %v, want %v", i, seg.sealed, sealed)
		}
	}
	// Reads that start exactly on, before, and after each roll boundary.
	for _, start := range []int64{0, 9, 10, 11, 19, 20, 29, 30, 34} {
		got, err := l.Read(start, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != int(35-start) {
			t.Fatalf("Read(%d) len = %d, want %d", start, len(got), 35-start)
		}
		for j, e := range got {
			if e.Offset != start+int64(j) || string(e.Value) != fmt.Sprintf("e%d", start+int64(j)) {
				t.Fatalf("Read(%d)[%d] = %+v", start, j, e)
			}
		}
	}
	// A second batch continues on the open segment without re-rolling.
	if _, err := l.AppendBatch(batch[:5], t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := len(l.segments); got != 4 {
		t.Fatalf("segments after second batch = %d, want 4", got)
	}
	if l.EndOffset() != 40 {
		t.Fatalf("end = %d, want 40", l.EndOffset())
	}
}

// TestRolledSegmentAllocatesRecordsOnce pins the segment roll's sizing:
// after the first roll, every segment's records array is allocated once,
// at the roll, sized to its sealed predecessor's record count — appends
// never regrow (and copy) it under the log lock. Rolls happen by bytes,
// as they do in production, with batches straddling each boundary.
func TestRolledSegmentAllocatesRecordsOnce(t *testing.T) {
	const size, perSegment = 512, 64
	l := New(Config{SegmentBytes: size * perSegment})
	// arrays[i] is segment i's backing array when its first record landed.
	var arrays []*record
	batch := make([]event.Event, 7)
	for i := range batch {
		batch[i] = sizedEv(size, "r")
	}
	for round := 0; round < 60; round++ {
		var err error
		if round%2 == 0 {
			_, err = l.AppendBatch(batch, t0)
		} else {
			_, err = l.Append(batch[0], t0)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, seg := range l.segments {
			if i == len(arrays) {
				arrays = append(arrays, unsafe.SliceData(seg.records))
			}
			if i > 0 && unsafe.SliceData(seg.records) != arrays[i] {
				t.Fatalf("segment %d regrew its records array at %d records", i, len(seg.records))
			}
		}
	}
	if len(l.segments) < 4 {
		t.Fatalf("only %d segments: the test must cross several rolls", len(l.segments))
	}
	for i := 1; i < len(l.segments); i++ {
		if got, want := cap(l.segments[i].records), len(l.segments[i-1].records); got != want {
			t.Fatalf("segment %d records cap = %d, want its predecessor's count %d", i, got, want)
		}
	}
}

func TestReadAfterCompactGaps(t *testing.T) {
	l := New(Config{Compact: true, SegmentEvents: 8})
	// Keys cycle 0..3; after compaction only the final write per key in
	// sealed segments survives, leaving offset gaps inside segments.
	for i := 0; i < 32; i++ {
		if _, err := l.Append(kev(fmt.Sprintf("k%d", i%4), fmt.Sprintf("v%d", i)), t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	removed := l.Compact()
	if removed == 0 {
		t.Fatal("compaction removed nothing")
	}
	// Every retained record must still be readable, in offset order, from
	// any starting offset — including offsets that now fall in gaps.
	for start := int64(0); start < 32; start++ {
		got, err := l.Read(start, 100)
		if err != nil {
			t.Fatalf("Read(%d): %v", start, err)
		}
		last := start - 1
		for _, e := range got {
			if e.Offset < start || e.Offset <= last {
				t.Fatalf("Read(%d) returned offset %d after %d", start, e.Offset, last)
			}
			last = e.Offset
		}
	}
	// The last occurrence of every key survives.
	got, err := l.Read(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, e := range got {
		seen[string(e.Key)] = string(e.Value)
	}
	for k := 0; k < 4; k++ {
		want := fmt.Sprintf("v%d", 28+k)
		if seen[fmt.Sprintf("k%d", k)] != want {
			t.Fatalf("key k%d = %q, want %q", k, seen[fmt.Sprintf("k%d", k)], want)
		}
	}
}

func TestOffsetForTimeBinarySearch(t *testing.T) {
	l := New(Config{SegmentEvents: 7})
	for i := 0; i < 50; i++ {
		if _, err := l.Append(ev(fmt.Sprintf("e%d", i)), t0.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		t    time.Time
		want int64
	}{
		{t0.Add(-time.Hour), 0},
		{t0, 0},
		{t0.Add(1 * time.Minute), 1},
		{t0.Add(90 * time.Second), 2},  // between records: first at-or-after
		{t0.Add(13 * time.Minute), 13}, // near a 7-record segment boundary
		{t0.Add(14 * time.Minute), 14},
		{t0.Add(49 * time.Minute), 49},
		{t0.Add(time.Hour), 50}, // past the end: end offset
	}
	for _, c := range cases {
		if got := l.OffsetForTime(c.t); got != c.want {
			t.Fatalf("OffsetForTime(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestOffsetForTimeWithCompactedGaps(t *testing.T) {
	l := New(Config{Compact: true, SegmentEvents: 6})
	// 24 records over 4 keys, one per second. Compaction leaves sparse,
	// still time-ordered records; the seek must land on retained offsets.
	for i := 0; i < 24; i++ {
		if _, err := l.Append(kev(fmt.Sprintf("k%d", i%4), fmt.Sprintf("v%d", i)), t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Compact() == 0 {
		t.Fatal("compaction removed nothing")
	}
	retained, err := l.Read(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// For a spread of probe times, the answer must equal the first
	// retained record with Timestamp >= t (the linear-scan definition).
	for s := -2; s < 28; s++ {
		probe := t0.Add(time.Duration(s) * time.Second)
		want := l.EndOffset()
		for _, e := range retained {
			if !e.Timestamp.Before(probe) {
				want = e.Offset
				break
			}
		}
		if got := l.OffsetForTime(probe); got != want {
			t.Fatalf("OffsetForTime(t0+%ds) = %d, want %d", s, got, want)
		}
	}
}

func TestOffsetForTimeWithEmptiedMiddleSegment(t *testing.T) {
	// Compaction can empty a sealed segment entirely; the segment-level
	// binary search must not treat it as "before t" (which once made the
	// seek skip every earlier segment).
	l := New(Config{Compact: true, SegmentEvents: 2})
	ts := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }
	for i, k := range []string{"a", "b", "c", "d", "c", "d"} {
		if _, err := l.Append(kev(k, fmt.Sprintf("v%d", i)), ts(i)); err != nil {
			t.Fatal(err)
		}
	}
	// seg0: a,b (kept); seg1: c,d (both superseded -> emptied); seg2: c,d.
	if l.Compact() != 2 {
		t.Fatal("expected compaction to empty the middle segment")
	}
	if len(l.segments[1].records) != 0 {
		t.Fatalf("middle segment still holds %d records", len(l.segments[1].records))
	}
	for i := 0; i < 6; i++ {
		want := l.EndOffset()
		for _, e := range mustRead(t, l, 0, 100) {
			if !e.Timestamp.Before(ts(i)) {
				want = e.Offset
				break
			}
		}
		if got := l.OffsetForTime(ts(i)); got != want {
			t.Fatalf("OffsetForTime(t0+%ds) = %d, want %d", i, got, want)
		}
	}
}

func TestReadMidSegmentAfterHeavyCompaction(t *testing.T) {
	// A sealed segment keeps its offset range when compaction removes
	// most of its records: a reader resuming from a mid-segment offset
	// must still see the survivors at the segment's tail.
	l := New(Config{Compact: true, SegmentEvents: 100})
	for i := 0; i < 100; i++ {
		if _, err := l.Append(kev("k", fmt.Sprintf("v%d", i)), t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 100; i < 105; i++ {
		if _, err := l.Append(kev("k2", fmt.Sprintf("v%d", i)), t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Compact() != 99 {
		t.Fatal("expected 99 superseded records removed from the sealed segment")
	}
	got := mustRead(t, l, 50, 10)
	if len(got) == 0 || got[0].Offset != 99 {
		t.Fatalf("Read(50) = %+v, want to start at surviving offset 99", got)
	}
}

func mustRead(t *testing.T, l *Log, off int64, max int) []event.Event {
	t.Helper()
	got, err := l.Read(off, max)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestReadBytesBudgetSemantics(t *testing.T) {
	l := New(Config{})
	sizes := []int{100, 200, 50, 400, 25}
	for i, n := range sizes {
		if _, err := l.Append(sizedEv(n, fmt.Sprintf("e%d", i)), t0); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		budget int
		want   int
	}{
		{1, 1},   // smaller than the first event: first is still returned
		{100, 1}, // exactly the first event: stop at the budget
		{101, 1}, // second event would reach 300 >= 101
		{300, 1}, // 100+200 == 300 >= 300: second excluded
		{301, 2}, // 100+200 < 301
		{351, 3}, // +50 = 350 < 351
		{10_000, 5},
	}
	for _, c := range cases {
		got, err := l.ReadBytes(0, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != c.want {
			t.Fatalf("ReadBytes(budget=%d) len = %d, want %d", c.budget, len(got), c.want)
		}
		if len(got) > 1 {
			total := 0
			for _, e := range got {
				total += e.Size()
			}
			if total >= c.budget {
				t.Fatalf("ReadBytes(budget=%d) returned %d bytes over budget beyond the first event", c.budget, total)
			}
		}
	}
	// The event-count bound composes with the byte budget.
	got, err := l.ReadBudget(0, 2, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ReadBudget(max=2) len = %d", len(got))
	}
}

func TestReadBudgetStartsMidLog(t *testing.T) {
	l := New(Config{SegmentEvents: 4})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(sizedEv(100, fmt.Sprintf("e%d", i)), t0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.ReadBudget(13, 100, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Offset != 13 || got[1].Offset != 14 {
		t.Fatalf("ReadBudget(13) = %+v", got)
	}
}
