package faas

import (
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

func newRuntime(t *testing.T, hostBytes int64) *Runtime {
	t.Helper()
	s := sim.NewScheduler()
	return NewRuntime(s, hostmem.New(hostBytes), costmodel.Default())
}

func addVM(r *Runtime, kind BackendKind, fnName string, n int) *FuncVM {
	return r.AddVM(VMConfig{
		Name: fnName + "-vm", Kind: kind, Fn: workload.ByName(fnName), N: n,
	})
}

func TestColdThenWarm(t *testing.T) {
	for _, kind := range []BackendKind{Static, VirtioMem, Squeezy, Harvest} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newRuntime(t, 0)
			fv := addVM(r, kind, "HTML", 4)
			var first, second Result
			fv.InvokePrimary(func(res Result) { first = res })
			// Stop before the 2 min keep-alive window expires.
			r.Sched.RunUntil(sim.Time(30 * sim.Second))
			if !first.Cold || first.Dropped {
				t.Fatalf("first request: %+v", first)
			}
			fv.InvokePrimary(func(res Result) { second = res })
			r.Sched.RunUntil(sim.Time(60 * sim.Second))
			if second.Cold {
				t.Fatal("second request did not reuse the idle instance")
			}
			if second.Latency >= first.Latency {
				t.Fatalf("warm (%v) not faster than cold (%v)", second.Latency, first.Latency)
			}
			if fv.ColdStarts != 1 || fv.WarmStarts != 1 {
				t.Fatalf("cold=%d warm=%d", fv.ColdStarts, fv.WarmStarts)
			}
		})
	}
}

func TestColdStartPhases(t *testing.T) {
	r := newRuntime(t, 0)
	fv := addVM(r, Squeezy, "Cnn", 4)
	var res Result
	fv.InvokePrimary(func(rr Result) { res = rr })
	r.Sched.Run()
	p := res.Phases
	if p.VMMDelay <= 0 || p.ContainerInit <= 0 || p.FuncInit <= 0 || p.Exec <= 0 {
		t.Fatalf("phases missing: %+v", p)
	}
	// §6.2.1: plug latency is 35-45ms for every function size.
	if p.VMMDelay < 20*sim.Millisecond || p.VMMDelay > 60*sim.Millisecond {
		t.Fatalf("plug delay %v outside band", p.VMMDelay)
	}
	if got := p.Total(); got != res.Latency {
		t.Fatalf("phases total %v != latency %v", got, res.Latency)
	}
}

func TestConcurrencyCap(t *testing.T) {
	r := newRuntime(t, 0)
	fv := addVM(r, Squeezy, "BFS", 2)
	done := 0
	for i := 0; i < 5; i++ {
		fv.InvokePrimary(func(Result) { done++ })
	}
	if fv.LiveInstances() > 2 {
		t.Fatalf("live instances %d exceed N=2", fv.LiveInstances())
	}
	r.Sched.Run()
	if done != 5 {
		t.Fatalf("completed %d of 5", done)
	}
	if fv.LiveInstances() > 2 {
		t.Fatalf("live instances %d exceed N=2", fv.LiveInstances())
	}
}

func TestKeepAliveEviction(t *testing.T) {
	for _, kind := range []BackendKind{VirtioMem, Squeezy} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newRuntime(t, 0)
			fv := addVM(r, kind, "HTML", 4)
			fv.InvokePrimary(nil)
			r.Sched.Run() // runs through keep-alive expiry
			if fv.Evictions != 1 {
				t.Fatalf("evictions = %d", fv.Evictions)
			}
			if fv.LiveInstances() != 0 {
				t.Fatalf("live = %d after keep-alive", fv.LiveInstances())
			}
			if fv.ReclaimedBytes != fv.InstanceBytes() {
				t.Fatalf("reclaimed %d, want %d", fv.ReclaimedBytes, fv.InstanceBytes())
			}
			// Host memory must be back: only boot + shared cache remain.
			if got := fv.VM.CommittedPages(); units.PagesToBytes(got) > 2*units.GiB {
				t.Fatalf("committed after eviction = %d pages", got)
			}
		})
	}
}

func TestKeepAliveResetOnReuse(t *testing.T) {
	r := newRuntime(t, 0)
	fv := addVM(r, Squeezy, "HTML", 2)
	fv.InvokePrimary(nil)
	// Re-invoke at 1.5 min: inside the 2 min window; instance survives
	// past the original expiry.
	r.Sched.At(sim.Time(90*sim.Second), func() { fv.InvokePrimary(nil) })
	r.Sched.RunUntil(sim.Time(150 * sim.Second))
	if fv.Evictions != 0 {
		t.Fatal("instance evicted despite reuse")
	}
	r.Sched.Run()
	if fv.Evictions != 1 {
		t.Fatalf("evictions = %d at end", fv.Evictions)
	}
}

func TestSqueezyReclaimFasterThanVirtioMem(t *testing.T) {
	measure := func(kind BackendKind) sim.Duration {
		r := newRuntime(t, 0)
		fv := addVM(r, kind, "Bert", 8)
		// Run several instances concurrently so footprints interleave
		// under virtio-mem.
		for i := 0; i < 4; i++ {
			fv.InvokePrimary(nil)
		}
		r.Sched.Run()
		if fv.ReclaimOps == 0 {
			t.Fatalf("%v: no reclaim ops", kind)
		}
		return fv.ReclaimTime / sim.Duration(fv.ReclaimOps)
	}
	vmem := measure(VirtioMem)
	sq := measure(Squeezy)
	if sq*3 > vmem {
		t.Fatalf("squeezy reclaim (%v) not clearly faster than virtio-mem (%v)", sq, vmem)
	}
}

func TestMemoryPressureEvictsIdle(t *testing.T) {
	// Host fits boot + shared + ~1 instance; a second cold start must
	// evict the idle first instance.
	fn := workload.ByName("BFS")
	instBytes := units.AlignUp(fn.MemoryLimit, units.BlockSize)
	hostBytes := units.AlignUp(fn.GuestOSBytes+64*units.MiB, units.BlockSize) + // boot
		units.AlignUp(fn.FileSharedBytes*5/4, units.BlockSize) + // shared cache
		instBytes + instBytes/2 // one instance + slack
	r := newRuntime(t, hostBytes)
	fv := addVM(r, Squeezy, "BFS", 4)
	var r1, r2 Result
	fv.InvokePrimary(func(res Result) { r1 = res })
	r.Sched.RunUntil(sim.Time(30 * sim.Second))
	if r1.Dropped || !r1.Cold {
		t.Fatalf("first request: %+v", r1)
	}
	// Second request 30s later: no memory for a second instance, but the
	// first is idle — pressure evicts it or the request reuses it warm.
	fv.InvokePrimary(func(res Result) { r2 = res })
	r.Sched.Run()
	if r2.Dropped {
		t.Fatal("second request dropped")
	}
	// It must have been served warm (idle instance reused is the fast
	// path the dispatcher prefers).
	if r2.Cold {
		t.Fatalf("expected warm reuse under pressure, got cold: %+v", r2)
	}
}

func TestPressureEvictionAcrossVMs(t *testing.T) {
	// Two VMs; host fits both boots + shareds + one instance. VM A's
	// idle instance must be evicted to admit VM B's cold start.
	fnA, fnB := workload.ByName("BFS"), workload.ByName("Cnn")
	boot := func(fn *workload.Function) int64 {
		return units.AlignUp(fn.GuestOSBytes+64*units.MiB, units.BlockSize) +
			units.AlignUp(fn.FileSharedBytes*5/4, units.BlockSize)
	}
	instBytes := units.AlignUp(fnA.MemoryLimit, units.BlockSize)
	hostBytes := boot(fnA) + boot(fnB) + instBytes + instBytes/2
	r := newRuntime(t, hostBytes)
	fvA := addVM(r, Squeezy, "BFS", 4)
	fvB := addVM(r, Squeezy, "Cnn", 4)
	var ra, rb Result
	fvA.InvokePrimary(func(res Result) { ra = res })
	r.Sched.RunUntil(sim.Time(20 * sim.Second))
	if ra.Dropped {
		t.Fatal("A's request failed")
	}
	fvB.InvokePrimary(func(res Result) { rb = res })
	r.Sched.Run()
	if rb.Dropped {
		t.Fatal("B's request dropped under pressure")
	}
	if !rb.Cold {
		t.Fatal("B should cold start")
	}
	if fvA.Evictions != 1 {
		t.Fatalf("A evictions = %d, want 1 (pressure)", fvA.Evictions)
	}
	if rb.Phases.MemWait <= 0 {
		t.Fatal("B's cold start should have waited for memory")
	}
}

func TestHarvestBufferAbsorbsChurn(t *testing.T) {
	r := newRuntime(t, 0)
	fn := workload.ByName("HTML")
	fv := r.AddVM(VMConfig{
		Name: "html-vm", Kind: Harvest, Fn: fn, N: 4,
		KeepAlive:          10 * sim.Second,
		HarvestBufferBytes: 2 * units.AlignUp(fn.MemoryLimit, units.BlockSize),
	})
	var cold1 Result
	fv.InvokePrimary(func(res Result) { cold1 = res })
	r.Sched.RunUntil(sim.Time(60 * sim.Second)) // keep-alive expires, memory buffered
	if fv.HarvestBufferBytes() != fv.InstanceBytes() {
		t.Fatalf("buffer = %d, want one instance", fv.HarvestBufferBytes())
	}
	if fv.ReclaimOps != 0 {
		t.Fatal("buffered eviction should not unplug")
	}
	// Next cold start draws from the buffer: no plug, faster VMM phase.
	var cold2 Result
	fv.InvokePrimary(func(res Result) { cold2 = res })
	r.Sched.RunUntil(sim.Time(70 * sim.Second))
	if !cold2.Cold {
		t.Fatal("expected a cold start")
	}
	if fv.HarvestBufferBytes() != 0 {
		t.Fatal("buffer not consumed")
	}
	if cold2.Phases.VMMDelay >= cold1.Phases.VMMDelay {
		t.Fatalf("buffered cold start VMM delay %v not below plug delay %v",
			cold2.Phases.VMMDelay, cold1.Phases.VMMDelay)
	}
}

func TestStaticVMNeverReclaims(t *testing.T) {
	r := newRuntime(t, 0)
	fv := addVM(r, Static, "HTML", 4)
	fv.InvokePrimary(nil)
	r.Sched.Run()
	if fv.ReclaimOps != 0 || fv.ReclaimedBytes != 0 {
		t.Fatal("static VM reclaimed memory")
	}
	// Host frames stay populated after eviction: the Figure 1
	// pathology.
	if fv.VM.PopulatedPages() == 0 {
		t.Fatal("populated pages dropped to zero")
	}
}

func TestCoLocationSharedVM(t *testing.T) {
	// Figure 9 setup: CNN and HTML instances in one VM (equal memory
	// limits).
	r := newRuntime(t, 0)
	html := workload.ByName("HTML")
	fv := r.AddVM(VMConfig{
		Name: "shared-vm", Kind: Squeezy, Fn: workload.ByName("Cnn"), N: 6,
		CoFns: []*workload.Function{html},
	})
	var resCnn, resHTML Result
	fv.InvokePrimary(func(res Result) { resCnn = res })
	fv.Invoke(html, func(res Result) { resHTML = res })
	r.Sched.RunUntil(sim.Time(30 * sim.Second))
	if resCnn.Dropped || resHTML.Dropped {
		t.Fatal("co-located requests failed")
	}
	if fv.Latencies["Cnn"].N() != 1 || fv.Latencies["HTML"].N() != 1 {
		t.Fatal("per-function latency tracking broken")
	}
	// Idle instances are function-specific: an HTML request does not
	// reuse a CNN instance.
	var second Result
	fv.Invoke(html, func(res Result) { second = res })
	r.Sched.RunUntil(sim.Time(60 * sim.Second))
	if second.Cold {
		t.Fatal("HTML request did not reuse the HTML instance")
	}
}

func TestReclaimThroughputMetric(t *testing.T) {
	r := newRuntime(t, 0)
	fv := addVM(r, Squeezy, "HTML", 2)
	fv.InvokePrimary(nil)
	r.Sched.Run()
	if tp := fv.ReclaimThroughputMiBs(); tp <= 0 {
		t.Fatalf("throughput = %v", tp)
	}
}

func TestMicroVMColdStart(t *testing.T) {
	s := sim.NewScheduler()
	host := hostmem.New(0)
	cost := costmodel.Default()
	fn := workload.ByName("HTML")
	var phases Phases
	var footprint int64
	ColdStart1to1(s, host, cost, fn, func(p Phases, fp int64) { phases, footprint = p, fp })
	s.Run()
	if phases.VMMDelay != sim.Duration(cost.MicroVMBoot) {
		t.Fatalf("boot = %v", phases.VMMDelay)
	}
	if phases.Total() <= sim.Duration(cost.MicroVMBoot) {
		t.Fatal("phases missing")
	}
	// Footprint covers guest OS + files + anon.
	min := fn.GuestOSBytes + fn.FileSharedBytes + fn.AnonBytes
	if footprint < min {
		t.Fatalf("footprint %s below expected %s", units.HumanBytes(footprint), units.HumanBytes(min))
	}
}

func TestN1CheaperThan1to1(t *testing.T) {
	// §6.3 headline: N:1 cold start ≈1.6x faster, 1:1 footprint ≈2.53x
	// larger. Verify direction for every function.
	for _, fn := range workload.Functions() {
		fn := fn
		t.Run(fn.Name, func(t *testing.T) {
			// 1:1.
			s := sim.NewScheduler()
			host := hostmem.New(0)
			var p11 Phases
			var fp11 int64
			ColdStart1to1(s, host, costmodel.Default(), fn, func(p Phases, fp int64) { p11, fp11 = p, fp })
			s.Run()

			// N:1 on a warmed Squeezy VM (shared deps already cached).
			r := newRuntime(t, 0)
			fv := r.AddVM(VMConfig{Name: "vm", Kind: Squeezy, Fn: fn, N: 4, KeepAlive: 5 * sim.Second})
			fv.InvokePrimary(nil) // warm the page cache
			r.Sched.RunUntil(sim.Time(60 * sim.Second))
			popBefore := fv.VM.PopulatedPages()
			var pN1 Phases
			var fpN1 int64
			fv.InvokePrimary(func(res Result) {
				pN1 = res.Phases
				// Footprint delta measured at completion, before the
				// keep-alive eviction releases the frames again.
				fpN1 = units.PagesToBytes(fv.VM.PopulatedPages() - popBefore)
			})
			r.Sched.RunUntil(sim.Time(120 * sim.Second))

			if pN1.Total() >= p11.Total() {
				t.Fatalf("N:1 cold start %v not faster than 1:1 %v", pN1.Total(), p11.Total())
			}
			if fpN1 <= 0 || fp11 <= fpN1 {
				t.Fatalf("1:1 footprint %s not larger than N:1 %s",
					units.HumanBytes(fp11), units.HumanBytes(fpN1))
			}
		})
	}
}

// TestSharedRecyclerAcrossRuntimes checks that runtimes on different
// schedulers share one Recycler: the second boots on the agent shell
// and vmm.VM the first released, rebound to its own scheduler, and a
// repeated Release of the first leaves them with their new owner.
func TestSharedRecyclerAcrossRuntimes(t *testing.T) {
	rec := NewRecycler()
	a, b := newRuntime(t, 0), newRuntime(t, 0)
	a.Recycle, b.Recycle = rec, rec
	first := addVM(a, Squeezy, "HTML", 2)
	vm := first.VM
	a.Release()
	fv := addVM(b, Squeezy, "HTML", 2)
	if fv != first || fv.VM != vm || vm.Sched != b.Sched {
		t.Fatal("runtime b did not boot on runtime a's released VM, rebound to b's scheduler")
	}
	a.Release()
	if fv.K.Zones() == nil {
		t.Fatal("a repeated Release retired the VM runtime b now owns")
	}
	fv.Submit(workload.ByName("HTML"), func(Result) {})
	b.Sched.RunFor(10 * sim.Second)
	if fv.ColdStarts != 1 || len(fv.Completions) != 1 {
		t.Fatalf("cold starts %d, completions %d on the recycled VM", fv.ColdStarts, len(fv.Completions))
	}
}
