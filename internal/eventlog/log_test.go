package eventlog

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"weak"

	"repro/internal/event"
)

var t0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func ev(val string) event.Event { return event.Event{Value: []byte(val)} }

func kev(key, val string) event.Event {
	return event.Event{Key: []byte(key), Value: []byte(val)}
}

func TestAppendAssignsDenseOffsets(t *testing.T) {
	l := New(Config{})
	for i := 0; i < 100; i++ {
		off, err := l.Append(ev(fmt.Sprintf("e%d", i)), t0)
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}
	if l.EndOffset() != 100 || l.StartOffset() != 0 {
		t.Fatalf("range [%d,%d), want [0,100)", l.StartOffset(), l.EndOffset())
	}
}

func TestReadReturnsInOrder(t *testing.T) {
	l := New(Config{})
	for i := 0; i < 50; i++ {
		if _, err := l.Append(ev(fmt.Sprintf("e%d", i)), t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.Read(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
	for i, e := range got {
		if e.Offset != int64(10+i) || string(e.Value) != fmt.Sprintf("e%d", 10+i) {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

func TestReadAtEndReturnsEmpty(t *testing.T) {
	l := New(Config{})
	if _, err := l.Append(ev("x"), t0); err != nil {
		t.Fatal(err)
	}
	got, err := l.Read(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d events at end", len(got))
	}
}

func TestReadOutOfRange(t *testing.T) {
	l := New(Config{})
	if _, err := l.Read(5, 1); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("err = %v, want ErrOffsetOutOfRange", err)
	}
	if _, err := l.Read(-1, 1); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("err = %v, want ErrOffsetOutOfRange", err)
	}
}

func TestAppendBatchAtomicOffsets(t *testing.T) {
	l := New(Config{})
	batch := []event.Event{ev("a"), ev("b"), ev("c")}
	first, err := l.AppendBatch(batch, t0)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("first = %d", first)
	}
	got, _ := l.Read(0, 10)
	if len(got) != 3 || string(got[2].Value) != "c" || got[2].Offset != 2 {
		t.Fatalf("got %+v", got)
	}
}

func TestSegmentRollingPreservesReads(t *testing.T) {
	l := New(Config{SegmentEvents: 10})
	for i := 0; i < 95; i++ {
		if _, err := l.Append(ev(fmt.Sprintf("e%d", i)), t0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.Read(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 95 {
		t.Fatalf("len = %d, want 95", len(got))
	}
	for i, e := range got {
		if e.Offset != int64(i) {
			t.Fatalf("offset %d at index %d", e.Offset, i)
		}
	}
	// Read spanning a segment boundary.
	got, err = l.Read(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0].Offset != 8 || got[4].Offset != 12 {
		t.Fatalf("cross-segment read: %+v", got)
	}
}

func TestOffsetForTime(t *testing.T) {
	l := New(Config{})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(ev(fmt.Sprintf("e%d", i)), t0.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if off := l.OffsetForTime(t0.Add(5 * time.Minute)); off != 5 {
		t.Fatalf("exact: %d, want 5", off)
	}
	if off := l.OffsetForTime(t0.Add(4*time.Minute + 30*time.Second)); off != 5 {
		t.Fatalf("between: %d, want 5", off)
	}
	if off := l.OffsetForTime(t0.Add(-time.Hour)); off != 0 {
		t.Fatalf("before all: %d, want 0", off)
	}
	if off := l.OffsetForTime(t0.Add(time.Hour)); off != 10 {
		t.Fatalf("after all: %d, want 10 (end)", off)
	}
}

func TestRetentionDropsOldSegments(t *testing.T) {
	l := New(Config{SegmentEvents: 10, Retention: time.Hour})
	for i := 0; i < 30; i++ {
		if _, err := l.Append(ev(fmt.Sprintf("e%d", i)), t0.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	// At t0+3h, segment 0 (last append t0+9m) and segment 1 (t0+19m)
	// are expired; segment 2 ends at t0+29m which is also > 1h old, but
	// the active segment is never deleted.
	deleted := l.EnforceRetention(t0.Add(3 * time.Hour))
	if deleted != 20 {
		t.Fatalf("deleted = %d, want 20", deleted)
	}
	if l.StartOffset() != 20 {
		t.Fatalf("start = %d, want 20", l.StartOffset())
	}
	if _, err := l.Read(0, 1); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("read before start: %v", err)
	}
	got, err := l.Read(20, 100)
	if err != nil || len(got) != 10 {
		t.Fatalf("read after retention: %v, %d events", err, len(got))
	}
}

// appendArena appends one event whose value is a fresh arena and
// returns a weak pointer to that arena. It is a separate, non-inlined
// function so no stack slot of the caller keeps the arena alive.
//
//go:noinline
func appendArena(t *testing.T, l *Log, at time.Time) weak.Pointer[[64 << 10]byte] {
	arena := new([64 << 10]byte)
	if _, err := l.Append(event.Event{Value: arena[:]}, at); err != nil {
		t.Fatal(err)
	}
	return weak.Make(arena)
}

// TestRetentionReleasesDroppedArenas pins the retention leak: a segment
// dropped by EnforceRetention must become unreachable at once, not when
// the next append happens to reallocate the segment slice — otherwise
// every arena its records alias stays pinned past the retention window.
func TestRetentionReleasesDroppedArenas(t *testing.T) {
	l := New(Config{SegmentEvents: 1, Retention: time.Minute})
	wp := appendArena(t, l, t0)
	if _, err := l.Append(ev("tail"), t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if deleted := l.EnforceRetention(t0.Add(time.Hour)); deleted != 1 {
		t.Fatalf("deleted = %d, want 1", deleted)
	}
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("dropped segment's value arena is still reachable after GC")
	}
	runtime.KeepAlive(l)
}

func TestRetentionBytes(t *testing.T) {
	l := New(Config{SegmentEvents: 10, RetentionBytes: 150, Retention: 365 * 24 * time.Hour})
	for i := 0; i < 30; i++ {
		if _, err := l.Append(ev("0123456789"), t0); err != nil { // 10 bytes each
			t.Fatal(err)
		}
	}
	l.EnforceRetention(t0)
	if l.Bytes() > 200 {
		t.Fatalf("bytes = %d after byte retention", l.Bytes())
	}
	if l.StartOffset() == 0 {
		t.Fatal("start offset did not advance")
	}
}

func TestCompactionKeepsLatestPerKey(t *testing.T) {
	l := New(Config{SegmentEvents: 4, Compact: true})
	keys := []string{"a", "b", "a", "c", "a", "b", "d", "a"}
	for i, k := range keys {
		if _, err := l.Append(kev(k, fmt.Sprintf("v%d", i)), t0); err != nil {
			t.Fatal(err)
		}
	}
	removed := l.Compact()
	if removed == 0 {
		t.Fatal("compaction removed nothing")
	}
	got, err := l.Read(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	latest := map[string]string{}
	for _, e := range got {
		latest[string(e.Key)] = string(e.Value)
	}
	// The final value for each key must survive.
	if latest["a"] != "v7" || latest["b"] != "v5" || latest["c"] != "v3" || latest["d"] != "v6" {
		t.Fatalf("latest = %v", latest)
	}
	// Offsets remain strictly increasing after compaction.
	for i := 1; i < len(got); i++ {
		if got[i].Offset <= got[i-1].Offset {
			t.Fatalf("offsets not increasing: %d then %d", got[i-1].Offset, got[i].Offset)
		}
	}
}

func TestCompactDisabledIsNoop(t *testing.T) {
	l := New(Config{SegmentEvents: 2})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(kev("k", "v"), t0); err != nil {
			t.Fatal(err)
		}
	}
	if removed := l.Compact(); removed != 0 {
		t.Fatalf("removed = %d on non-compacted log", removed)
	}
}

func TestReadBytesBounded(t *testing.T) {
	l := New(Config{})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(ev("0123456789"), t0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.ReadBytes(0, 35)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 { // the 4th event would cross the 35-byte bound
		t.Fatalf("len = %d, want 3", len(got))
	}
	// At least one event is returned even if it exceeds the budget.
	got, err = l.ReadBytes(0, 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("min one event: %v, %d", err, len(got))
	}
}

func TestClosedLogRejectsOps(t *testing.T) {
	l := New(Config{})
	l.Close()
	if _, err := l.Append(ev("x"), t0); !errors.Is(err, ErrClosed) {
		t.Fatalf("append: %v", err)
	}
	if _, err := l.Read(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("read: %v", err)
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	l := New(Config{SegmentEvents: 64})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			if _, err := l.Append(ev("payload"), t0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		end := l.EndOffset()
		if _, err := l.Read(0, int(end)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			if l.EndOffset() != 2000 {
				t.Fatalf("end = %d", l.EndOffset())
			}
			return
		default:
		}
	}
}

// Property: for any sequence of appends, reading from any valid offset
// returns exactly the suffix of appended events.
func TestReadSuffixProperty(t *testing.T) {
	f := func(payloads [][]byte, start uint8) bool {
		if len(payloads) == 0 {
			return true
		}
		l := New(Config{SegmentEvents: 3})
		for _, p := range payloads {
			if _, err := l.Append(event.Event{Value: p}, t0); err != nil {
				return false
			}
		}
		from := int64(start) % int64(len(payloads))
		got, err := l.Read(from, len(payloads))
		if err != nil {
			return false
		}
		if len(got) != len(payloads)-int(from) {
			return false
		}
		for i, e := range got {
			if e.Offset != from+int64(i) {
				return false
			}
			if string(e.Value) != string(payloads[from+int64(i)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetForTimeAfterRetention(t *testing.T) {
	l := New(Config{SegmentEvents: 5, Retention: time.Minute})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(ev(fmt.Sprintf("e%d", i)), t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	l.EnforceRetention(t0.Add(time.Hour))
	start := l.StartOffset()
	if start == 0 {
		t.Fatal("retention removed nothing")
	}
	// Seeking to a pre-retention time lands at the first retained record.
	if off := l.OffsetForTime(t0); off != start {
		t.Fatalf("OffsetForTime = %d, want start %d", off, start)
	}
}

func TestConcurrentRetentionAndRead(t *testing.T) {
	l := New(Config{SegmentEvents: 16, Retention: time.Millisecond})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = l.Append(ev("x"), t0.Add(time.Duration(i)*time.Millisecond))
			l.EnforceRetention(t0.Add(time.Duration(i+100) * time.Millisecond))
		}
	}()
	for i := 0; i < 500; i++ {
		start := l.StartOffset()
		if _, err := l.Read(start, 64); err != nil && !errors.Is(err, ErrOffsetOutOfRange) {
			t.Fatal(err) // racing retention may move start; other errors are bugs
		}
	}
	close(stop)
	wg.Wait()
}

func TestCompactionPreservesReadAfterRetention(t *testing.T) {
	l := New(Config{SegmentEvents: 4, Compact: true, Retention: 365 * 24 * time.Hour})
	for i := 0; i < 40; i++ {
		if _, err := l.Append(kev(fmt.Sprintf("k%d", i%2), fmt.Sprintf("v%d", i)), t0); err != nil {
			t.Fatal(err)
		}
	}
	l.Compact()
	l.Compact() // idempotent second pass
	got, err := l.Read(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]string{}
	for _, e := range got {
		vals[string(e.Key)] = string(e.Value)
	}
	if vals["k0"] != "v38" || vals["k1"] != "v39" {
		t.Fatalf("latest values = %v", vals)
	}
}

// --- tail waiters (PR 4) ---

// TestWaitAppendReturnsImmediatelyWhenDataAvailable: a wait below the
// end offset never blocks.
func TestWaitAppendReturnsImmediatelyWhenDataAvailable(t *testing.T) {
	l := New(Config{})
	for i := 0; i < 3; i++ {
		l.Append(ev(fmt.Sprintf("e%d", i)), t0)
	}
	start := time.Now()
	end, err := l.WaitAppend(1, 5*time.Second, nil)
	if err != nil || end != 3 {
		t.Fatalf("WaitAppend = %d, %v", end, err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("WaitAppend blocked with data available")
	}
}

// TestWaitAppendWakesOnAppend: waiters parked at the tail wake when a
// record arrives, and every concurrent waiter observes it.
func TestWaitAppendWakesOnAppend(t *testing.T) {
	l := New(Config{})
	l.Append(ev("a"), t0)
	const waiters = 4
	var wg sync.WaitGroup
	results := make([]int64, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			end, err := l.WaitAppend(1, 5*time.Second, nil)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = end
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	l.Append(ev("b"), t0)
	wg.Wait()
	for i, end := range results {
		if end != 2 {
			t.Fatalf("waiter %d woke with end %d, want 2", i, end)
		}
	}
}

// TestWaitAppendTimeout: a wait on a dry log returns at the deadline
// with the unchanged end offset and no error.
func TestWaitAppendTimeout(t *testing.T) {
	l := New(Config{})
	start := time.Now()
	end, err := l.WaitAppend(0, 50*time.Millisecond, nil)
	if err != nil || end != 0 {
		t.Fatalf("WaitAppend = %d, %v", end, err)
	}
	if d := time.Since(start); d < 40*time.Millisecond || d > 2*time.Second {
		t.Fatalf("timeout fired after %v", d)
	}
}

// TestWaitAppendStopChannel: closing the stop channel releases the
// waiter before the timeout.
func TestWaitAppendStopChannel(t *testing.T) {
	l := New(Config{})
	stop := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(stop)
	}()
	start := time.Now()
	if _, err := l.WaitAppend(0, 10*time.Second, stop); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("stop channel did not release the waiter")
	}
}

// TestWaitAppendCloseFailsWaiters: Close wakes parked waiters with
// ErrClosed instead of leaving them blocked.
func TestWaitAppendCloseFailsWaiters(t *testing.T) {
	l := New(Config{})
	errCh := make(chan error, 1)
	go func() {
		_, err := l.WaitAppend(0, 10*time.Second, nil)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	l.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("waiter returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close left the waiter parked")
	}
}

// TestWaitAppendBatchWakes: AppendBatch notifies once per batch and the
// waiter sees the full batch.
func TestWaitAppendBatchWakes(t *testing.T) {
	l := New(Config{})
	done := make(chan int64, 1)
	go func() {
		end, _ := l.WaitAppend(0, 5*time.Second, nil)
		done <- end
	}()
	time.Sleep(30 * time.Millisecond)
	if _, err := l.AppendBatch([]event.Event{ev("a"), ev("b"), ev("c")}, t0); err != nil {
		t.Fatal(err)
	}
	select {
	case end := <-done:
		if end != 3 {
			t.Fatalf("woke with end %d, want 3", end)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("batch append did not wake the waiter")
	}
}

// TestReadsCounter: the read probe counts ReadBudgetInto calls across
// every read entry point.
func TestReadsCounter(t *testing.T) {
	l := New(Config{})
	l.Append(ev("a"), t0)
	if n := l.Reads(); n != 0 {
		t.Fatalf("fresh log reports %d reads", n)
	}
	if _, err := l.Read(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadBytes(0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if n := l.Reads(); n != 2 {
		t.Fatalf("Reads = %d, want 2", n)
	}
}
