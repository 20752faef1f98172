package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %d, want 30", s.Now())
	}
	if s.Fired() != 3 {
		t.Fatalf("fired = %d, want 3", s.Fired())
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(10, func() { fired = true })
	e.Cancel()
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Clock does not advance past a cancelled event's time unless asked.
	if s.Now() != 0 {
		t.Fatalf("clock advanced to %d by cancelled event", s.Now())
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var trace []Time
	s.After(5, func() {
		trace = append(trace, s.Now())
		s.After(7, func() {
			trace = append(trace, s.Now())
		})
	})
	s.Run()
	if len(trace) != 2 || trace[0] != 5 || trace[1] != 12 {
		t.Fatalf("nested scheduling trace = %v", trace)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, ts := range []Time{10, 20, 30, 40} {
		ts := ts
		s.At(ts, func() { fired = append(fired, ts) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v", fired)
	}
	if s.Now() != 25 {
		t.Fatalf("clock = %d, want 25", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("RunUntil(100) fired %v", fired)
	}
	if s.Now() != 100 {
		t.Fatalf("clock = %d, want 100", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(50, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(10, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	s.At(10, nil)
}

func TestNextEventTime(t *testing.T) {
	s := NewScheduler()
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("NextEventTime on empty queue reported an event")
	}
	e := s.At(42, func() {})
	if ts, ok := s.NextEventTime(); !ok || ts != 42 {
		t.Fatalf("NextEventTime = %d,%v", ts, ok)
	}
	e.Cancel()
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("NextEventTime reported a cancelled event")
	}
}

// Property: regardless of insertion order, events fire sorted by
// timestamp, and ties fire in insertion order.
func TestOrderingProperty(t *testing.T) {
	f := func(seed uint64, raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		rng := rand.New(rand.NewPCG(seed, 1))
		s := NewScheduler()
		type rec struct {
			when Time
			seq  int
		}
		var fired []rec
		for i, v := range raw {
			when := Time(v)
			i := i
			s.At(when, func() { fired = append(fired, rec{when, i}) })
		}
		_ = rng
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		ok := sort.SliceIsSorted(fired, func(a, b int) bool {
			if fired[a].when != fired[b].when {
				return fired[a].when < fired[b].when
			}
			return fired[a].seq < fired[b].seq
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	ts := Time(5 * Second)
	if ts.Add(Second) != Time(6*Second) {
		t.Error("Add")
	}
	if ts.Sub(Time(2*Second)) != Duration(3*Second) {
		t.Error("Sub")
	}
	if ts.Seconds() != 5 {
		t.Error("Seconds")
	}
}

// Cancelled events must be dropped lazily when they reach the front of
// the queue — never fired, never counted — whether they sit in the
// near-future ring or the far-future heap.
func TestCancelThenPopLazyDrop(t *testing.T) {
	s := NewScheduler()
	var fired []int
	var evs []Event
	// Mix near (ring) and far (heap) events.
	for i, d := range []Duration{Millisecond, 2 * Millisecond, Second, 2 * Second} {
		i := i
		evs = append(evs, s.After(d, func() { fired = append(fired, i) }))
	}
	evs[1].Cancel() // ring-resident
	evs[2].Cancel() // heap-resident
	if s.Len() != 4 {
		t.Fatalf("Len = %d before pop, want 4 (cancelled events pending until popped)", s.Len())
	}
	s.Run()
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [0 3]", fired)
	}
	if s.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", s.Fired())
	}
}

// peek (via NextEventTime) must skip over a run of cancelled events at
// the head and report the first live one.
func TestPeekSkipsCancelledHeads(t *testing.T) {
	s := NewScheduler()
	for _, d := range []Duration{Millisecond, 2 * Millisecond, Second} {
		s.After(d, func() {}).Cancel()
	}
	live := s.After(3*Second, func() {})
	if ts, ok := s.NextEventTime(); !ok || ts != live.When() {
		t.Fatalf("NextEventTime = %v,%v; want %v,true past three cancelled heads", ts, ok, live.When())
	}
	_ = live
}

// RunUntil must fire same-timestamp events in insertion order, even
// when they were inserted interleaved with other timestamps and the
// horizon lands exactly on the tie.
func TestRunUntilFiresTiesInInsertionOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(20, func() { got = append(got, 0) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.At(10, func() { got = append(got, 3) })
	s.At(30, func() { got = append(got, 4) })
	s.At(20, func() { got = append(got, 5) })
	s.RunUntil(20)
	want := []int{1, 3, 0, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if s.Now() != 20 {
		t.Fatalf("clock = %d, want 20", s.Now())
	}
}

// A handle kept past its event's firing must be inert: the record is
// recycled for later events, and a stale Cancel must not touch them.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	s := NewScheduler()
	var stale Event
	fired := false
	stale = s.After(Millisecond, func() {})
	s.Run()
	// The arena slot of `stale` is free; the next event reuses it.
	fresh := s.After(Millisecond, func() { fired = true })
	stale.Cancel()
	if stale.Canceled() {
		t.Fatal("stale handle reports Canceled")
	}
	if fresh.Canceled() {
		t.Fatal("stale Cancel leaked onto the recycled event")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled event did not fire after a stale Cancel")
	}
}

// Cancelling from inside the event's own callback (the keep-alive
// pattern: the timer fires, the handler cancels its stored handle) must
// not corrupt events scheduled by that same callback.
func TestCancelOwnHandleInsideCallback(t *testing.T) {
	s := NewScheduler()
	var ka Event
	nextFired := false
	ka = s.After(Millisecond, func() {
		next := s.After(Millisecond, func() { nextFired = true })
		ka.Cancel() // stale self-cancel, as faas eviction does
		if next.Canceled() {
			t.Fatal("self-cancel hit the freshly scheduled event")
		}
	})
	s.Run()
	if !nextFired {
		t.Fatal("follow-up event did not fire")
	}
}

// Property: the two-level queue (bucket ring + heap) fires any mix of
// near, far, and cancelled events in exactly (timestamp, insertion)
// order — byte-compatible with a single global priority queue.
func TestTwoLevelQueueOrderingProperty(t *testing.T) {
	f := func(seed uint64, raw []uint32) bool {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		rng := rand.New(rand.NewPCG(seed, 2))
		s := NewScheduler()
		type rec struct {
			when Time
			seq  int
		}
		var fired, want []rec
		var evs []Event
		for i, v := range raw {
			// Spread timestamps across ring granules and far beyond the
			// ring horizon so both queues participate.
			when := Time(v % 3_000_000_000)
			i := i
			evs = append(evs, s.At(when, func() { fired = append(fired, rec{when, i}) }))
			want = append(want, rec{when, i})
		}
		cancelled := make(map[int]bool)
		for i := range evs {
			if rng.IntN(4) == 0 {
				evs[i].Cancel()
				cancelled[i] = true
			}
		}
		s.Run()
		kept := want[:0]
		for _, r := range want {
			if !cancelled[r.seq] {
				kept = append(kept, r)
			}
		}
		want = kept
		sort.SliceStable(want, func(a, b int) bool { return want[a].when < want[b].when })
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestResetReplaysIdentically is the reset-vs-fresh equivalence guard:
// a reset scheduler must drive the same event program to the same
// firing sequence as a freshly constructed one, including recycled
// arena slots and ring buckets.
func TestResetReplaysIdentically(t *testing.T) {
	program := func(s *Scheduler) []Time {
		var fired []Time
		note := func() { fired = append(fired, s.Now()) }
		// Mix near-future (ring) and far-future (heap) events, a
		// cancellation, and nested scheduling.
		s.At(5, note)
		e := s.At(7, note)
		s.At(Time(Second), func() {
			note()
			s.After(3*Millisecond, note)
		})
		s.After(2*Minute, note)
		e.Cancel()
		s.Run()
		return fired
	}
	fresh := NewScheduler()
	want := program(fresh)

	reused := NewScheduler()
	// Dirty the scheduler thoroughly: pending heap and ring events,
	// cancellations, partially consumed buckets.
	for i := 0; i < 100; i++ {
		ev := reused.At(Time(i)*Time(Millisecond), func() {})
		if i%3 == 0 {
			ev.Cancel()
		}
		reused.At(Time(i)*Time(Minute), func() {})
	}
	reused.RunUntil(Time(20 * Millisecond))
	reused.Reset()
	if reused.Now() != 0 || reused.Len() != 0 || reused.Fired() != 0 {
		t.Fatalf("Reset left state: now=%d len=%d fired=%d", reused.Now(), reused.Len(), reused.Fired())
	}
	got := program(reused)
	if len(got) != len(want) {
		t.Fatalf("reset scheduler fired %d events, fresh fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d at %d on reset scheduler, %d on fresh", i, got[i], want[i])
		}
	}
}

// TestResetStaleHandleInert verifies Event handles from before a Reset
// cannot touch recycled records.
func TestResetStaleHandleInert(t *testing.T) {
	s := NewScheduler()
	stale := s.At(10, func() {})
	s.Reset()
	fired := false
	s.At(1, func() { fired = true })
	stale.Cancel() // must not cancel the new event occupying the slot
	if stale.Canceled() {
		t.Fatal("stale handle reports canceled after Reset")
	}
	s.Run()
	if !fired {
		t.Fatal("event cancelled through a stale pre-Reset handle")
	}
}

// TestRunUntilEpoch pins the epoch-advance contract: events strictly
// before the boundary fire, events at the boundary stay pending, the
// clock lands exactly on the boundary, and work injected at the
// boundary orders after the pending same-timestamp backlog.
func TestRunUntilEpoch(t *testing.T) {
	s := NewScheduler()
	var log []int
	s.At(5, func() { log = append(log, 5) })
	s.At(10, func() { log = append(log, 10) }) // backlog at the boundary
	s.At(15, func() { log = append(log, 15) })

	s.RunUntilEpoch(10)
	if s.Now() != 10 {
		t.Fatalf("clock = %d, want 10", s.Now())
	}
	if len(log) != 1 || log[0] != 5 {
		t.Fatalf("fired %v, want only the pre-boundary event", log)
	}

	// Injected at the boundary: must fire after the pending backlog at
	// the same timestamp (its insertion sequence is later).
	s.At(10, func() { log = append(log, 100) })
	s.Run()
	want := []int{5, 10, 100, 15}
	if len(log) != len(want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fired %v, want %v", log, want)
		}
	}
}

// TestRunUntilEpochZeroAndIdle covers the edges: an epoch advance to 0
// is a no-op on a fresh scheduler, and advancing an empty scheduler
// just moves the clock.
func TestRunUntilEpochZeroAndIdle(t *testing.T) {
	s := NewScheduler()
	s.RunUntilEpoch(0)
	if s.Now() != 0 {
		t.Fatalf("clock = %d after epoch 0", s.Now())
	}
	s.RunUntilEpoch(42)
	if s.Now() != 42 {
		t.Fatalf("clock = %d, want 42", s.Now())
	}
	fired := false
	s.At(42, func() { fired = true })
	s.RunUntilEpoch(43)
	if !fired {
		t.Fatal("event at 42 did not fire when advancing past it")
	}
}

// TestJump covers the host-join primitive: a fresh scheduler must be
// able to land on the fleet clock without replaying history, and the
// guard rails must reject any jump that would skip pending work.
func TestJump(t *testing.T) {
	s := NewScheduler()
	s.Jump(100)
	if s.Now() != 100 {
		t.Fatalf("clock = %d after Jump(100)", s.Now())
	}
	s.Jump(100) // same-time jump is a no-op, not an error
	fired := false
	s.At(200, func() { fired = true })
	s.Jump(200) // jumping exactly onto a pending event is legal...
	if fired {
		t.Fatal("Jump must not fire events")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Jump over a pending event did not panic")
			}
		}()
		s.Jump(201) // ...but jumping past it would lose it
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("backwards Jump did not panic")
			}
		}()
		s.Jump(50)
	}()
}
