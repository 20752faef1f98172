package faas

import (
	"squeezy/internal/costmodel"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/vmm"
)

// Recycler caches the expensive parts of FuncVM construction across
// simulation runs: the guest-kernel arena storage (zone structs, buddy
// head bitmaps, population bitmaps — delegated to a guestos.Recycler),
// whole vmm.VMs with their cpu pools, and the FuncVM agent shells
// themselves (instance maps, queues, latency tables). A runtime built
// with a Recycler boots VMs out of the cache and FuncVM.Release returns
// them, so consecutive runs on one worker (or one simulated host)
// reuse a single working set instead of reallocating it per run.
//
// The reset invariants of the recycled layers (vmm.VM.Reset,
// guestos zone/bitmap recycling, and the FuncVM field reset in
// newFuncVM) guarantee a recycled FuncVM behaves identically to a
// freshly constructed one. A Recycler is not safe for concurrent use;
// give each worker — and each simulated host of a fleet — its own.
type Recycler struct {
	// Kernels caches guest-kernel arena storage; it is injected as
	// VMConfig.Recycle into every VM built through the recycler.
	Kernels *guestos.Recycler

	vms []*vmm.VM
	fvs []*FuncVM
}

// NewRecycler returns an empty recycler.
func NewRecycler() *Recycler {
	return &Recycler{Kernels: guestos.NewRecycler()}
}

// takeVM returns a cached VM reset for a new run, or nil when none is
// compatible. VMs are bound to the scheduler they were built on; a VM
// cached under a different scheduler is left for that scheduler's
// future runs rather than rewired (in practice one Recycler only ever
// sees one scheduler, so the guard is a safety net, not a code path).
func (r *Recycler) takeVM(name string, sched *sim.Scheduler, cost *costmodel.Model, host *hostmem.Host, vcpus float64) *vmm.VM {
	for i := len(r.vms) - 1; i >= 0; i-- {
		vm := r.vms[i]
		if vm.Sched != sched {
			continue
		}
		r.vms = append(r.vms[:i], r.vms[i+1:]...)
		vm.Reset(name, cost, host, vcpus)
		return vm
	}
	return nil
}

// putVM caches a retired VM for reuse. The VM must be dead: its
// simulation is over and nothing will touch it until takeVM revives it.
func (r *Recycler) putVM(vm *vmm.VM) { r.vms = append(r.vms, vm) }

// AcquireVM returns a VM on sched ready for a new run: a cached VM
// reset in place when one is compatible, else a fresh one. Callers
// that build VMs directly (the kernel-direct experiment drivers)
// retire them with ReleaseVM when the run ends.
func (r *Recycler) AcquireVM(name string, sched *sim.Scheduler, cost *costmodel.Model, host *hostmem.Host, vcpus float64) *vmm.VM {
	if vm := r.takeVM(name, sched, cost, host, vcpus); vm != nil {
		return vm
	}
	return vmm.New(name, sched, cost, host, vcpus)
}

// ReleaseVM retires a dead VM into the cache for AcquireVM to revive.
func (r *Recycler) ReleaseVM(vm *vmm.VM) { r.putVM(vm) }

// takeFuncVM returns a cached agent shell, or nil. The shell's fields
// are stale; newFuncVM re-initializes every one of them.
func (r *Recycler) takeFuncVM() *FuncVM {
	if n := len(r.fvs); n > 0 {
		fv := r.fvs[n-1]
		r.fvs[n-1] = nil
		r.fvs = r.fvs[:n-1]
		return fv
	}
	return nil
}

// putFuncVM caches a released agent shell for reuse.
func (r *Recycler) putFuncVM(fv *FuncVM) { r.fvs = append(r.fvs, fv) }
