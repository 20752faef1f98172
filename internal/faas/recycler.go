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
// them, so consecutive runs on one worker reuse a single working set
// instead of reallocating it per run.
//
// The reset invariants of the recycled layers (vmm.VM.Reset,
// guestos zone/bitmap recycling, and the FuncVM field reset in
// newFuncVM) guarantee a recycled FuncVM behaves identically to a
// freshly constructed one, whichever scheduler it last ran on. A
// Recycler is not safe for concurrent use: each worker owns one, and
// its kernel-direct cells and every host of its fleet share it.
type Recycler struct {
	// Kernels caches guest-kernel arena storage; every VM built through
	// the recycler (and every kernel-direct driver's kernel) draws from
	// it.
	Kernels *guestos.Recycler

	vms []*vmm.VM
	fvs []*FuncVM
}

// NewRecycler returns an empty recycler.
func NewRecycler() *Recycler {
	return &Recycler{Kernels: guestos.NewRecycler()}
}

// AcquireVM returns a VM on sched ready for a new run: the VM cached
// last, reset in place and rebound to sched, else a fresh one. A
// world's kernel-direct cells and every host of its fleet run on
// different schedulers and share one pool. newFuncVM takes its VMs
// here; the kernel-direct experiment drivers call it directly and
// retire their VMs with ReleaseVM when the run ends.
func (r *Recycler) AcquireVM(name string, sched *sim.Scheduler, cost *costmodel.Model, host *hostmem.Host, vcpus float64) *vmm.VM {
	if n := len(r.vms); n > 0 {
		vm := r.vms[n-1]
		r.vms[n-1] = nil
		r.vms = r.vms[:n-1]
		vm.Reset(name, sched, cost, host, vcpus)
		return vm
	}
	return vmm.New(name, sched, cost, host, vcpus)
}

// ReleaseVM caches a retired VM for AcquireVM to revive. The VM must be
// dead: its simulation is over and nothing will touch it until then.
func (r *Recycler) ReleaseVM(vm *vmm.VM) { r.vms = append(r.vms, vm) }

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
