package vmm

import (
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/cpu"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/units"
)

func newVM(t *testing.T) (*VM, *sim.Scheduler) {
	t.Helper()
	s := sim.NewScheduler()
	h := hostmem.New(0)
	return New("vm0", s, costmodel.Default(), h, 4), s
}

func TestCommitUncommit(t *testing.T) {
	vm, _ := newVM(t)
	if !vm.Commit(1000) {
		t.Fatal("commit failed on unlimited host")
	}
	if vm.CommittedPages() != 1000 {
		t.Fatalf("committed = %d", vm.CommittedPages())
	}
	if vm.CommittedBytes() != 1000*units.PageSize {
		t.Fatalf("committed bytes = %d", vm.CommittedBytes())
	}
	vm.Uncommit(400)
	if vm.CommittedPages() != 600 {
		t.Fatalf("committed = %d", vm.CommittedPages())
	}
}

func TestCommitRespectsHostBudget(t *testing.T) {
	s := sim.NewScheduler()
	h := hostmem.New(1 * units.MiB) // 256 pages
	vm := New("vm0", s, costmodel.Default(), h, 1)
	if !vm.Commit(256) {
		t.Fatal("commit within budget failed")
	}
	if vm.Commit(1) {
		t.Fatal("commit beyond budget succeeded")
	}
}

func TestPopulateChargesNestedFaults(t *testing.T) {
	vm, _ := newVM(t)
	vm.Commit(1000)
	d := vm.PopulatePages(100)
	if want := 100 * vm.Cost.NestedFaultPerPage; d != want {
		t.Fatalf("latency = %v, want %v", d, want)
	}
	if vm.PopulatedPages() != 100 {
		t.Fatalf("populated = %d", vm.PopulatedPages())
	}
	if vm.Exits("ept") != 100 {
		t.Fatalf("ept exits = %d", vm.Exits("ept"))
	}
	if vm.Host.PopulatedPages() != 100 {
		t.Fatalf("host populated = %d", vm.Host.PopulatedPages())
	}
}

func TestPopulateBeyondCommitPanics(t *testing.T) {
	vm, _ := newVM(t)
	vm.Commit(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	vm.PopulatePages(11)
}

func TestReleaseClampsToPopulated(t *testing.T) {
	vm, _ := newVM(t)
	vm.Commit(100)
	vm.PopulatePages(50)
	vm.ReleasePages(80) // partially populated block being unplugged
	if vm.PopulatedPages() != 0 {
		t.Fatalf("populated = %d", vm.PopulatedPages())
	}
}

func TestRunChainSerializesAndMeasures(t *testing.T) {
	vm, s := newVM(t)
	gotTotal := sim.Duration(-1)
	var gotBD *stats.Breakdown
	steps := []Step{
		{Pool: vm.VCPUs, Work: 10 * sim.Millisecond, Class: "virtio-mem", Label: StepMigration},
		{Pool: vm.VCPUs, Work: 0, Class: "virtio-mem", Label: StepZeroing}, // skipped
		{Pool: vm.HostThreads, Work: 3 * sim.Millisecond, Class: "vmm", Label: StepVMExits},
	}
	RunChain(s, steps, func(bd *stats.Breakdown, total sim.Duration) {
		gotBD, gotTotal = bd, total
	})
	s.Run()
	if gotTotal != 13*sim.Millisecond {
		t.Fatalf("total = %v, want 13ms", gotTotal)
	}
	if gotBD.Get(StepMigration) != 10 || gotBD.Get(StepVMExits) != 3 {
		t.Fatalf("breakdown = %v", gotBD)
	}
	if gotBD.Get(StepZeroing) != 0 {
		t.Fatalf("zero-work step accrued time: %v", gotBD)
	}
}

func TestRunChainContentionInflatesWallTime(t *testing.T) {
	vm, s := newVM(t)
	// Saturate the single host thread with a competing job.
	vm.HostThreads.Submit(20*sim.Millisecond, cpu.Config{Class: "other"})
	var gotTotal sim.Duration
	RunChain(s, []Step{
		{Pool: vm.HostThreads, Work: 20 * sim.Millisecond, Class: "vmm", Label: StepVMExits},
	}, func(_ *stats.Breakdown, total sim.Duration) { gotTotal = total })
	s.Run()
	// Two equal jobs sharing one core: wall time doubles.
	if gotTotal != 40*sim.Millisecond {
		t.Fatalf("total = %v, want 40ms under contention", gotTotal)
	}
}

func TestRunChainEmpty(t *testing.T) {
	_, s := newVM(t)
	called := false
	RunChain(s, nil, func(bd *stats.Breakdown, total sim.Duration) {
		called = true
		if total != 0 {
			t.Errorf("total = %v", total)
		}
	})
	s.Run()
	if !called {
		t.Fatal("done not called for empty chain")
	}
}

// TestVMResetEquivalence replays the same populate/release/exit
// program on a fresh VM and on a reset one (after unrelated prior
// work, including a pinned reclaim pool) and requires identical
// accounting and latencies.
func TestVMResetEquivalence(t *testing.T) {
	program := func(s *sim.Scheduler, vm *VM) (lat sim.Duration, pop, com int64, exits int64, busy sim.Duration) {
		if !vm.Commit(1000) {
			t.Fatal("commit failed")
		}
		lat = vm.PopulatePages(600)
		vm.ReleasePages(200)
		vm.VCPUs.Submit(5*sim.Millisecond, cpu.Config{Class: "f"})
		s.Run()
		return lat, vm.PopulatedPages(), vm.CommittedPages(), vm.Exits("ept"), vm.VCPUs.TotalBusy()
	}
	sf := sim.NewScheduler()
	fresh := New("vm", sf, costmodel.Default(), hostmem.New(0), 4)
	wl, wp, wc, we, wb := program(sf, fresh)

	sr := sim.NewScheduler()
	reused := New("other", sr, costmodel.Default(), hostmem.New(0), 9)
	reused.PinReclaimThreads()
	reused.Commit(50)
	reused.PopulatePages(50)
	reused.CountExit("ept", 7)
	reused.VCPUs.Submit(sim.Millisecond, cpu.Config{Class: "old"})
	sr.Run()
	sr.Reset()
	reused.Reset("vm", sr, costmodel.Default(), hostmem.New(0), 4)
	if reused.ReclaimPool != nil {
		t.Fatal("Reset kept the pinned reclaim pool")
	}
	gl, gp, gc, ge, gb := program(sr, reused)
	if gl != wl || gp != wp || gc != wc || ge != we || gb != wb {
		t.Fatalf("reset VM: lat=%v pop=%d com=%d exits=%d busy=%v; fresh: %v %d %d %d %v",
			gl, gp, gc, ge, gb, wl, wp, wc, we, wb)
	}

	// A VM reset onto another scheduler runs there, pools included.
	sn := sim.NewScheduler()
	oldFired := sr.Fired()
	reused.PinReclaimThreads()
	reused.Reset("vm", sn, costmodel.Default(), hostmem.New(0), 4)
	gl, gp, gc, ge, gb = program(sn, reused)
	if gl != wl || gp != wp || gc != wc || ge != we || gb != wb {
		t.Fatalf("rebound VM: lat=%v pop=%d com=%d exits=%d busy=%v; fresh: %v %d %d %d %v",
			gl, gp, gc, ge, gb, wl, wp, wc, we, wb)
	}
	if reused.Sched != sn || sn.Fired() == 0 || sr.Fired() != oldFired {
		t.Fatal("rebound VM did not run on its new scheduler")
	}
}
