package cpu

import (
	"math"
	"reflect"
	"testing"

	"squeezy/internal/sim"
)

func TestSingleJobRunsAtFullSpeed(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 4)
	done := sim.Time(-1)
	p.Submit(1000, Config{Name: "j", OnDone: func() { done = s.Now() }})
	s.Run()
	// Single job capped at 1 core: 1000 CPU-ns takes 1000 ns.
	if done != 1000 {
		t.Fatalf("completion at %d, want 1000", done)
	}
}

func TestTwoJobsShareOneCore(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 1)
	var doneA, doneB sim.Time
	p.Submit(1000, Config{Name: "a", OnDone: func() { doneA = s.Now() }})
	p.Submit(1000, Config{Name: "b", OnDone: func() { doneB = s.Now() }})
	s.Run()
	// Each runs at 0.5 cores: both finish at 2000.
	if doneA != 2000 || doneB != 2000 {
		t.Fatalf("completions %d,%d want 2000,2000", doneA, doneB)
	}
}

func TestJobsDoNotContendWhenCoresSuffice(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 2)
	var doneA, doneB sim.Time
	p.Submit(1000, Config{Name: "a", OnDone: func() { doneA = s.Now() }})
	p.Submit(500, Config{Name: "b", OnDone: func() { doneB = s.Now() }})
	s.Run()
	if doneA != 1000 || doneB != 500 {
		t.Fatalf("completions %d,%d want 1000,500", doneA, doneB)
	}
}

func TestWeightedSharing(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 1)
	var doneHeavy, doneLight sim.Time
	// Weight 3 vs 1 on one core: heavy runs at 0.75, light at 0.25.
	p.Submit(750, Config{Name: "heavy", Weight: 3, OnDone: func() { doneHeavy = s.Now() }})
	p.Submit(250, Config{Name: "light", Weight: 1, OnDone: func() { doneLight = s.Now() }})
	s.Run()
	if doneHeavy != 1000 || doneLight != 1000 {
		t.Fatalf("completions %d,%d want 1000,1000", doneHeavy, doneLight)
	}
}

func TestCapLimitsAllocation(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 4)
	var done sim.Time
	// Cap 0.25 (an HTML-like 0.25-share container): 1000 CPU-ns takes 4000 ns
	// even with idle cores.
	p.Submit(1000, Config{Name: "html", Cap: 0.25, OnDone: func() { done = s.Now() }})
	s.Run()
	if done != 4000 {
		t.Fatalf("completion at %d, want 4000", done)
	}
}

func TestWaterFillingRedistributesSlack(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 1)
	var doneA, doneB sim.Time
	// a capped at 0.25; b uncapped. b should get 0.75, not 0.5.
	p.Submit(250, Config{Name: "a", Cap: 0.25, OnDone: func() { doneA = s.Now() }})
	p.Submit(750, Config{Name: "b", OnDone: func() { doneB = s.Now() }})
	s.Run()
	if doneA != 1000 || doneB != 1000 {
		t.Fatalf("completions %d,%d want 1000,1000", doneA, doneB)
	}
}

func TestCompletionChangesRates(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 1)
	var doneShort, doneLong sim.Time
	p.Submit(500, Config{Name: "short", OnDone: func() { doneShort = s.Now() }})
	p.Submit(1000, Config{Name: "long", OnDone: func() { doneLong = s.Now() }})
	s.Run()
	// Both at 0.5 until short finishes at t=1000 (500 work done each).
	// Long then has 500 left at rate 1: finishes at 1500.
	if doneShort != 1000 {
		t.Fatalf("short done at %d, want 1000", doneShort)
	}
	if doneLong != 1500 {
		t.Fatalf("long done at %d, want 1500", doneLong)
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 1)
	fired := false
	j := p.Submit(0, Config{OnDone: func() { fired = true }})
	if !j.Done() {
		t.Fatal("zero-work job should be done at submit")
	}
	s.Run()
	if !fired {
		t.Fatal("zero-work completion callback did not fire")
	}
}

func TestCancel(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 1)
	fired := false
	var doneB sim.Time
	a := p.Submit(1000, Config{Name: "a", OnDone: func() { fired = true }})
	p.Submit(1000, Config{Name: "b", OnDone: func() { doneB = s.Now() }})
	s.After(500, func() { a.Cancel() })
	s.Run()
	if fired {
		t.Fatal("cancelled job's callback fired")
	}
	// b: 250 done by t=500 (rate 0.5), then rate 1: 750 more ns -> 1250.
	if doneB != 1250 {
		t.Fatalf("b done at %d, want 1250", doneB)
	}
	if !a.Done() {
		t.Fatal("cancelled job not Done")
	}
}

func TestAddWork(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 1)
	var done sim.Time
	j := p.Submit(1000, Config{Name: "reclaim", OnDone: func() { done = s.Now() }})
	s.After(500, func() { j.AddWork(500) })
	s.Run()
	if done != 1500 {
		t.Fatalf("done at %d, want 1500", done)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 2)
	p.Submit(1000, Config{Class: "function"})
	p.Submit(400, Config{Class: "virtio-mem"})
	s.Run()
	if got := p.Utilization("function"); got != 1000 {
		t.Fatalf("function usage = %d, want 1000", got)
	}
	if got := p.Utilization("virtio-mem"); got != 400 {
		t.Fatalf("virtio-mem usage = %d, want 400", got)
	}
	if got := p.TotalBusy(); got != 1400 {
		t.Fatalf("total busy = %d, want 1400", got)
	}
}

func TestUtilizationMidFlight(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 1)
	p.Submit(10_000, Config{Class: "kthread"})
	s.After(1000, func() {
		if got := p.Utilization("kthread"); got != 1000 {
			t.Errorf("usage at t=1000 is %d, want 1000", got)
		}
	})
	s.Run()
}

func TestWorkConservation(t *testing.T) {
	// Total busy time must equal total submitted work regardless of the
	// contention pattern.
	s := sim.NewScheduler()
	p := NewPool(s, 3)
	var total sim.Duration
	works := []sim.Duration{123, 4567, 89, 1011, 121314, 1, 7777}
	for i, w := range works {
		total += w
		delay := sim.Duration(i * 100)
		w := w
		s.After(delay, func() { p.Submit(w, Config{Class: "x"}) })
	}
	s.Run()
	if got := p.Utilization("x"); got != total {
		t.Fatalf("total busy = %d, want %d", got, total)
	}
	if p.Active() != 0 {
		t.Fatalf("active jobs remain: %d", p.Active())
	}
}

func TestManyJobsFairness(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 4)
	const n = 16
	var finish [n]sim.Time
	for i := 0; i < n; i++ {
		i := i
		p.Submit(1000, Config{OnDone: func() { finish[i] = s.Now() }})
	}
	s.Run()
	// 16 equal jobs on 4 cores: each at 0.25 cores, all finish at 4000.
	for i, f := range finish {
		if f != 4000 {
			t.Fatalf("job %d finished at %d, want 4000", i, f)
		}
	}
}

func TestNonPositiveCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(sim.NewScheduler(), 0)
}

func TestFractionalRatesConverge(t *testing.T) {
	// 3 jobs on 2 cores: each gets 2/3 core; work 2000 -> finish at 3000.
	s := sim.NewScheduler()
	p := NewPool(s, 2)
	var finishes []sim.Time
	for i := 0; i < 3; i++ {
		p.Submit(2000, Config{OnDone: func() { finishes = append(finishes, s.Now()) }})
	}
	s.Run()
	for _, f := range finishes {
		if math.Abs(float64(f)-3000) > 2 { // integer rounding tolerance
			t.Fatalf("finish at %d, want ~3000", f)
		}
	}
}

// TestPoolResetEquivalence runs the same job program on a fresh pool
// and on a reset pool (after unrelated prior work, on its old scheduler
// and rebound to another one) and requires identical completion times
// and accounting.
func TestPoolResetEquivalence(t *testing.T) {
	program := func(s *sim.Scheduler, p *Pool) (doneAt []sim.Time, busy sim.Duration) {
		for i := 0; i < 4; i++ {
			w := sim.Duration(i+1) * 10 * sim.Millisecond
			p.Submit(w, Config{Name: "j", Class: "c", Weight: float64(i + 1), Cap: 1,
				OnDone: func() { doneAt = append(doneAt, s.Now()) }})
		}
		s.Run()
		return doneAt, p.TotalBusy()
	}
	sf := sim.NewScheduler()
	fresh := NewPool(sf, 2)
	wantDone, wantBusy := program(sf, fresh)

	sr := sim.NewScheduler()
	reused := NewPool(sr, 7)
	reused.Submit(time42, Config{Class: "old"})
	sr.RunUntil(sr.Now().Add(5 * sim.Millisecond))
	sr.Reset()
	reused.Reset(sr, 2)
	if reused.Active() != 0 || reused.TotalBusy() != 0 || reused.Utilization("old") != 0 {
		t.Fatal("Reset left job or usage state")
	}
	gotDone, gotBusy := program(sr, reused)
	if len(gotDone) != len(wantDone) {
		t.Fatalf("completions: %d vs %d", len(gotDone), len(wantDone))
	}
	for i := range wantDone {
		if gotDone[i] != wantDone[i] {
			t.Fatalf("completion %d at %d on reset pool, %d on fresh", i, gotDone[i], wantDone[i])
		}
	}
	if gotBusy != wantBusy {
		t.Fatalf("busy %v vs %v", gotBusy, wantBusy)
	}

	// Rebound mid-job to a scheduler already 3 ms in: the old scheduler
	// never advances again, and the program runs 3 ms later on the new one.
	reused.Submit(time42, Config{Class: "old"})
	sr.RunUntil(sr.Now().Add(5 * sim.Millisecond))
	sn := sim.NewScheduler()
	sn.RunUntil(sn.Now().Add(3 * sim.Millisecond))
	reused.Reset(sn, 2)
	gotDone, gotBusy = program(sn, reused)
	if len(gotDone) != len(wantDone) || gotBusy != wantBusy {
		t.Fatalf("rebound pool: %d completions, busy %v; fresh: %d, %v", len(gotDone), gotBusy, len(wantDone), wantBusy)
	}
	for i := range wantDone {
		if want := wantDone[i] + sim.Time(3*sim.Millisecond); gotDone[i] != want {
			t.Fatalf("rebound pool: completion %d at %d, want %d", i, gotDone[i], want)
		}
	}
}

const time42 = 42 * sim.Millisecond

// TestStaleJobHandleAfterReuse checks that a finished job's handle
// keeps its semantics once a new job has reused its slab record:
// Cancel is still a no-op and AddWork still panics, and neither touches
// the new job.
func TestStaleJobHandleAfterReuse(t *testing.T) {
	s := sim.NewScheduler()
	p := NewPool(s, 1)
	old := p.Submit(1000, Config{Name: "old"})
	s.Run()
	var done sim.Time
	fresh := p.Submit(1000, Config{Name: "fresh", OnDone: func() { done = s.Now() }})
	if fresh.idx != old.idx {
		t.Fatal("job record was not reused")
	}
	if !old.Done() || fresh.Done() {
		t.Fatalf("old done %v, fresh done %v", old.Done(), fresh.Done())
	}
	old.Cancel()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AddWork on a finished job's stale handle did not panic")
			}
		}()
		old.AddWork(500)
	}()
	if fresh.Done() || fresh.Remaining() != 1000 {
		t.Fatalf("stale handle touched the reusing job: done %v, remaining %v", fresh.Done(), fresh.Remaining())
	}
	s.Run()
	if done != 2000 {
		t.Fatalf("reusing job done at %d, want 2000", done)
	}
}

// TestJobSlabHoldsNoPointers keeps the job slab invisible to the
// garbage collector: every job field must be a plain number.
func TestJobSlabHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(job{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if k := f.Type.Kind(); k < reflect.Int || k > reflect.Float64 {
			t.Errorf("job.%s is a %v, not a number", f.Name, f.Type)
		}
	}
}
