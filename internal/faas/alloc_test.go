package faas

import (
	"testing"

	"squeezy/internal/sim"
	"squeezy/internal/workload"
)

// TestWarmInvocationAllocatesNothing pins the allocation-free warm
// path: once the keep-alive window has cycled through the scheduler's
// storage, a warm invocation — Submit, the warm execution on the vCPU
// pool, completion, and the keep-alive re-arm — makes no heap
// allocation. Request records come off the VM's free list, cpu jobs
// off the pool's slab, and every callback on the path is bound once per
// pool or instance. LeanMetrics is on because the exact per-request
// logs grow with request count by design.
func TestWarmInvocationAllocatesNothing(t *testing.T) {
	for _, kind := range []BackendKind{VirtioMem, Squeezy} {
		t.Run(kind.String(), func(t *testing.T) {
			r := newRuntime(t, 0)
			fn := workload.ByName("HTML")
			fv := r.AddVM(VMConfig{
				Name: "warm-vm", Kind: kind, Fn: fn, N: 2,
				KeepAlive: 10 * sim.Second, LeanMetrics: true,
			})
			warm := 0
			onDone := func(res Result) {
				if !res.Cold && !res.Dropped && !res.Failed {
					warm++
				}
			}
			invoke := func() {
				fv.Submit(fn, onDone)
				r.Sched.RunFor(sim.Second)
			}
			fv.Submit(fn, onDone) // the cold start
			r.Sched.RunFor(10 * sim.Second)
			// Warm up past the keep-alive window, so cancelled timers
			// start retiring and every buffer reaches its steady size.
			for i := 0; i < 30; i++ {
				invoke()
			}
			warm = 0
			const runs = 100
			if allocs := testing.AllocsPerRun(runs, invoke); allocs != 0 {
				t.Fatalf("warm invocation allocates %v objects, want 0", allocs)
			}
			// AllocsPerRun makes one extra warm-up call.
			if warm != runs+1 || fv.ColdStarts != 1 {
				t.Fatalf("warm completions %d, cold starts %d: not a warm steady state", warm, fv.ColdStarts)
			}
		})
	}
}

// TestTicketStaleAfterRecycle checks that a Ticket outliving its
// request cannot cancel the request that reuses the record.
func TestTicketStaleAfterRecycle(t *testing.T) {
	r := newRuntime(t, 0)
	fv := addVM(r, Squeezy, "HTML", 1)
	fn := fv.Cfg.Fn
	completed := 0
	record := func(res Result) {
		if !res.Dropped && !res.Failed {
			completed++
		}
	}
	// Two finished requests leave two records on the free list.
	old := []Ticket{fv.Submit(fn, record), fv.Submit(fn, record)}
	r.Sched.RunFor(30 * sim.Second)
	// The first new request occupies the only instance; the second
	// waits in the queue, cancellable, in a recycled record.
	fv.Submit(fn, record)
	queued := fv.Submit(fn, record)
	if queued.req != old[0].req && queued.req != old[1].req {
		t.Fatal("request record was not recycled")
	}
	for _, stale := range old {
		if stale.TryCancel() {
			t.Fatal("stale ticket cancelled the request reusing its record")
		}
	}
	r.Sched.RunFor(30 * sim.Second)
	if fv.CancelledReqs != 0 || completed != 4 {
		t.Fatalf("cancelled %d, completed %d of 4 requests", fv.CancelledReqs, completed)
	}
	if queued.TryCancel() {
		t.Fatal("ticket cancelled a finished request")
	}
}
