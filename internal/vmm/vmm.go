package vmm

import (
	"fmt"

	"squeezy/internal/costmodel"
	"squeezy/internal/cpu"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/units"
)

// Breakdown labels shared by all reclamation interfaces (Figure 5).
const (
	StepZeroing   = "zeroing"
	StepMigration = "migration"
	StepVMExits   = "vmexits"
	StepRest      = "rest"
)

// BreakdownLabels returns the canonical label set, in stacking order.
func BreakdownLabels() []string {
	return []string{StepZeroing, StepMigration, StepVMExits, StepRest}
}

// Step is one serial stage of a hot(un)plug operation.
type Step struct {
	// Pool is the CPU pool the work runs on (guest vCPUs or host
	// threads). Steps with zero Work are skipped.
	Pool *cpu.Pool
	// Work is the CPU time the step consumes.
	Work sim.Duration
	// Class is the CPU accounting class ("virtio-mem", "balloon", ...).
	Class string
	// Label is the Figure 5 breakdown bucket the step's wall time
	// accrues to.
	Label string
	// Weight is the processor-sharing weight; zero defaults to
	// KthreadWeight for guest reclaim steps set by the drivers, or 1.
	Weight float64
}

// KthreadWeight is the scheduling weight drivers give guest reclaim
// kernel threads: a kthread effectively claims a whole vCPU instead of
// fair-sharing with containers, which is what makes vanilla unplug
// visible to co-located instances (Figure 9).
const KthreadWeight = 64.0

// VM couples the guest-visible resources of one virtual machine with
// their host-side accounting.
type VM struct {
	Name  string
	Sched *sim.Scheduler
	Cost  *costmodel.Model
	Host  *hostmem.Host

	// VCPUs runs guest work: function instances and guest kernel
	// threads.
	VCPUs *cpu.Pool
	// HostThreads runs VMM work: VM-exit servicing, device emulation.
	HostThreads *cpu.Pool
	// ReclaimPool, when non-nil, is a dedicated vCPU for guest reclaim
	// kernel threads (the pinned setup of §6.1.2). When nil, reclaim
	// threads share VCPUs with function instances and interfere with
	// them (§6.2.1, Figure 9).
	ReclaimPool *cpu.Pool

	exits          map[string]int64
	populatedPages int64
	committedPages int64
}

// New creates a VM with the given number of vCPUs. Host-side device
// threads get a single dedicated core, as in the paper's pinned setup
// (§6.1.2).
func New(name string, sched *sim.Scheduler, cost *costmodel.Model, host *hostmem.Host, vcpus float64) *VM {
	return &VM{
		Name:        name,
		Sched:       sched,
		Cost:        cost,
		Host:        host,
		VCPUs:       cpu.NewPool(sched, vcpus),
		HostThreads: cpu.NewPool(sched, 1),
		exits:       make(map[string]int64),
	}
}

// Reset re-boots the VM struct in place for a new simulation run on
// sched, which may differ from its last one: the vCPU and host-thread
// pools are rebound to sched and reset (cpu.Pool.Reset), exit counters
// and population accounting cleared, and any pinned reclaim pool
// dropped (call PinReclaimThreads again if the new run pins). A reset
// VM behaves identically to one built by New.
func (vm *VM) Reset(name string, sched *sim.Scheduler, cost *costmodel.Model, host *hostmem.Host, vcpus float64) {
	vm.Name = name
	vm.Sched = sched
	vm.Cost = cost
	vm.Host = host
	vm.VCPUs.Reset(sched, vcpus)
	vm.HostThreads.Reset(sched, 1)
	vm.ReclaimPool = nil
	clear(vm.exits)
	vm.populatedPages = 0
	vm.committedPages = 0
}

// GuestReclaimPool returns the pool guest reclaim kernel threads run
// on: the dedicated ReclaimPool if pinned, otherwise the shared vCPUs.
func (vm *VM) GuestReclaimPool() *cpu.Pool {
	if vm.ReclaimPool != nil {
		return vm.ReclaimPool
	}
	return vm.VCPUs
}

// PinReclaimThreads gives reclaim kernel threads a dedicated vCPU.
func (vm *VM) PinReclaimThreads() {
	vm.ReclaimPool = cpu.NewPool(vm.Sched, 1)
}

// CountExit records n VM exits of the given kind.
func (vm *VM) CountExit(kind string, n int64) { vm.exits[kind] += n }

// Exits returns the number of recorded VM exits of the given kind.
func (vm *VM) Exits(kind string) int64 { return vm.exits[kind] }

// Commit reserves host memory for plugged guest memory; false means the
// host is out of budget.
func (vm *VM) Commit(pages int64) bool {
	if !vm.Host.TryCommit(pages) {
		return false
	}
	vm.committedPages += pages
	return true
}

// Uncommit returns plugged-memory budget to the host.
func (vm *VM) Uncommit(pages int64) {
	if pages > vm.committedPages {
		panic(fmt.Sprintf("vmm: %s uncommitting %d > committed %d", vm.Name, pages, vm.committedPages))
	}
	vm.committedPages -= pages
	vm.Host.Uncommit(pages)
}

// CommittedPages returns guest memory currently plugged into this VM.
func (vm *VM) CommittedPages() int64 { return vm.committedPages }

// CommittedBytes returns committed memory in bytes.
func (vm *VM) CommittedBytes() int64 { return units.PagesToBytes(vm.committedPages) }

// PopulatePages accounts for fresh guest pages being backed by host
// frames (nested page faults on first touch) and returns the guest-
// visible latency of those faults.
func (vm *VM) PopulatePages(pages int64) sim.Duration {
	if pages <= 0 {
		return 0
	}
	vm.populatedPages += pages
	if vm.populatedPages > vm.committedPages {
		panic(fmt.Sprintf("vmm: %s populated %d > committed %d", vm.Name, vm.populatedPages, vm.committedPages))
	}
	vm.Host.Populate(pages)
	vm.CountExit("ept", pages)
	return sim.Duration(pages) * vm.Cost.NestedFaultPerPage
}

// ReleasePages releases host frames after an unplug
// (madvise(MADV_DONTNEED)). Releasing more than is populated is
// tolerated down to zero because unplugged blocks may be only partially
// populated.
func (vm *VM) ReleasePages(pages int64) {
	if pages > vm.populatedPages {
		pages = vm.populatedPages
	}
	vm.populatedPages -= pages
	vm.Host.Release(pages)
}

// PopulatedPages returns the host frames currently backing this VM.
func (vm *VM) PopulatedPages() int64 { return vm.populatedPages }

// RunChain executes steps serially, each as a CPU job on its pool, and
// calls done with the per-label wall-time breakdown and total elapsed
// time. Wall time per step can exceed Step.Work under CPU contention —
// that is the interference Figure 9 measures.
func RunChain(sched *sim.Scheduler, steps []Step, done func(*stats.Breakdown, sim.Duration)) {
	bd := stats.NewBreakdown(BreakdownLabels()...)
	start := sched.Now()
	var next func(i int)
	next = func(i int) {
		for i < len(steps) && steps[i].Work <= 0 {
			i++
		}
		if i >= len(steps) {
			done(bd, sched.Now().Sub(start))
			return
		}
		st := steps[i]
		stepStart := sched.Now()
		st.Pool.Submit(st.Work, cpu.Config{
			Name:   st.Label,
			Class:  st.Class,
			Weight: st.Weight,
			OnDone: func() {
				bd.Add(st.Label, sched.Now().Sub(stepStart).Milliseconds())
				next(i + 1)
			},
		})
	}
	next(0)
}
