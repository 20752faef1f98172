package experiments

import (
	"squeezy/internal/cluster"
	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/vmm"
)

// World is the pooled simulation state one worker hands to each cell
// it executes. Construction of a simulation world — scheduler event
// arenas, buddy head bitmaps, population bitmaps, cluster node structs,
// FuncVM shells and their inner VMs — is a significant share of a
// sweep cell's cost, and none of it needs to be rebuilt from scratch:
// the World resets the previous cell's storage instead.
//
// Cells obtain their stack through the World (Scheduler, Kernel,
// Runtime, VM, Fleet) rather than the packages' constructors;
// everything built this way draws from the worker's pools and is
// released back when the cell ends. The reset invariants of the
// underlying layers (sim.Scheduler.Reset, buddy.Allocator.Reset,
// mem.Zone.Reset, vmm.VM.Reset, cluster.Cluster.Reset, ...)
// guarantee a cell runs identically on a pooled world and on a fresh
// one, so worker count and cell interleaving never leak into results.
//
// A World is owned by exactly one goroutine, and a cell — fleet cells
// included — runs entirely on it.
type World struct {
	sched *sim.Scheduler
	rec   *faas.Recycler

	kernels  []*guestos.Kernel
	runtimes []*faas.Runtime
	fleet    *cluster.Cluster

	vmInUse []*vmm.VM // this cell's kernel-direct VMs, retired at cell end

	// Observability: the executor hands each cell its identity and the
	// run's sink via beginObs; Trace lazily creates the cell's trace,
	// and endCell flushes a non-empty one into the sink. All nil when
	// tracing is off.
	obsSink  *obs.Sink
	obsTrace *obs.Trace
	obsExp   string
	obsTrial int
	obsLabel string
}

// newWorld returns a fresh world, ready for its first cell.
func newWorld() *World {
	return &World{sched: sim.NewScheduler(), rec: faas.NewRecycler()}
}

// begin prepares the world for the next cell: the scheduler restarts
// at virtual time zero with its arenas kept.
func (w *World) begin() {
	w.sched.Reset()
}

// beginObs sets the next cell's trace identity. A nil sink disables
// tracing for the cell (Trace returns nil and every layer stays on its
// free disabled path).
func (w *World) beginObs(sink *obs.Sink, exp string, trial int, label string) {
	w.obsSink = sink
	w.obsTrace = nil
	w.obsExp, w.obsTrial, w.obsLabel = exp, trial, label
}

// Trace returns the current cell's trace, creating it on first use; nil
// when tracing is off. Cells that build their stack through the World
// (Fleet, Runtime) are traced automatically; a cell wiring layers by
// hand can AttachObs the trace itself.
func (w *World) Trace() *obs.Trace {
	if w.obsSink == nil {
		return nil
	}
	if w.obsTrace == nil {
		w.obsTrace = &obs.Trace{Experiment: w.obsExp, Trial: w.obsTrial, Label: w.obsLabel}
	}
	return w.obsTrace
}

// endCell releases the finished cell's kernels and VMs back into the
// worker's pools so the next cell reuses their storage, and flushes a
// non-empty trace into the run's sink.
func (w *World) endCell() {
	if w.obsTrace != nil && !w.obsTrace.Empty() {
		w.obsSink.Add(w.obsTrace)
	}
	w.obsTrace = nil
	for i, k := range w.kernels {
		k.Release()
		w.kernels[i] = nil
	}
	w.kernels = w.kernels[:0]
	for i, rt := range w.runtimes {
		rt.Release()
		w.runtimes[i] = nil
	}
	w.runtimes = w.runtimes[:0]
	if w.fleet != nil {
		w.fleet.Release()
	}
	for i, vm := range w.vmInUse {
		w.rec.ReleaseVM(vm)
		w.vmInUse[i] = nil
	}
	w.vmInUse = w.vmInUse[:0]
}

// VM returns a virtual machine on the world's scheduler: a retired VM
// reset in place (its cpu pools, exit counters, and accounting
// restored to boot state) when one is spare, else a fresh one. It is
// retired automatically when the cell ends.
func (w *World) VM(name string, cost *costmodel.Model, host *hostmem.Host, vcpus float64) *vmm.VM {
	vm := w.rec.AcquireVM(name, w.sched, cost, host, vcpus)
	w.vmInUse = append(w.vmInUse, vm)
	return vm
}

// Scheduler returns the cell's scheduler, already reset to virtual
// time zero.
func (w *World) Scheduler() *sim.Scheduler { return w.sched }

// Kernel builds a guest kernel from the world's arena cache and tracks
// it for release when the cell ends.
func (w *World) Kernel(vm *vmm.VM, cfg guestos.Config) *guestos.Kernel {
	cfg.Recycle = w.rec.Kernels
	k := guestos.NewKernel(vm, cfg)
	w.kernels = append(w.kernels, k)
	return k
}

// Runtime builds a FaaS runtime on the world's scheduler whose VMs —
// guest kernels, inner vmm.VMs, and agent shells — draw from the
// worker's pool; everything is released when the cell ends.
func (w *World) Runtime(host *hostmem.Host, cost *costmodel.Model) *faas.Runtime {
	rt := faas.NewRuntime(w.sched, host, cost)
	rt.Recycle = w.rec
	if tr := w.Trace(); tr != nil {
		rt.Obs = tr.HostTrack(len(w.runtimes), w.sched)
	}
	w.runtimes = append(w.runtimes, rt)
	return rt
}

// Fleet returns a fleet of the requested shape: the worker's cached
// fleet reset in place when one exists, else a fresh one. The fleet's
// hosts keep their schedulers across cells, and every host builds its
// VMs from the world's recycler, the same pool the kernel-direct cells
// draw from.
func (w *World) Fleet(cost *costmodel.Model, cfg cluster.Config, policy cluster.Policy) *cluster.Cluster {
	if w.fleet == nil {
		w.fleet = cluster.New(cost, cfg, policy, w.rec)
	} else {
		w.fleet.Reset(cost, cfg, policy)
	}
	w.fleet.AttachObs(w.Trace())
	return w.fleet
}
