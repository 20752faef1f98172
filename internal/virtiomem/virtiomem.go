package virtiomem

import (
	"sort"

	"squeezy/internal/guestos"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

// CPU accounting classes.
const (
	GuestClass = "virtio-mem"
	HostClass  = "virtio-mem-vmm"
)

// CandidatePolicy selects the order in which online blocks are
// considered for offlining.
type CandidatePolicy int

const (
	// EmptiestFirst tries the blocks with the fewest occupied pages
	// first, minimizing migrations — the effective behaviour of the
	// driver's retry logic.
	EmptiestFirst CandidatePolicy = iota
	// HighestFirst walks the device memory top-down regardless of
	// occupancy, as a naive linear scan does (ablation).
	HighestFirst
)

// Driver is the guest-side virtio-mem driver bound to one VM's movable
// zone. Its plug and unplug commands share one device queue
// (vmm.Device), which also carries the fault hooks.
type Driver struct {
	vmm.Device

	K      *guestos.Kernel
	Policy CandidatePolicy

	// Obs, when non-nil, records a span per plug/unplug command with the
	// migrate/zero page detail; recording never alters the command.
	Obs *obs.Recorder

	// chunks is the offline loop's ChunksInRange buffer, reused across
	// blocks and commands.
	chunks []guestos.ChunkID
}

// New creates a driver for the kernel's movable zone.
func New(k *guestos.Kernel) *Driver {
	if k.Movable == nil {
		panic("virtiomem: kernel has no movable zone")
	}
	return &Driver{K: k}
}

// PluggedBlocks returns the number of online movable blocks.
func (d *Driver) PluggedBlocks() int { return len(d.K.Movable.OnlineBlocks()) }

// Plug hot-adds and onlines enough blocks to cover bytes, bounded by
// the zone span and the host commit budget. onDone receives the bytes
// actually plugged after the (short) plug latency has elapsed.
func (d *Driver) Plug(bytes int64, onDone func(plugged int64)) {
	d.Submit(func() {
		vm := d.K.VM
		want := units.BytesToBlocks(bytes)
		var onlined int64
		for i := 0; i < d.K.Movable.Blocks() && onlined < want; i++ {
			if d.K.Movable.BlockIsOnline(i) {
				continue
			}
			if !vm.Commit(units.PagesPerBlock) {
				break
			}
			d.K.Movable.OnlineBlock(i)
			onlined++
		}
		steps := []vmm.Step{
			{Pool: vm.HostThreads, Work: vm.Cost.PlugHostFixed, Class: HostClass, Label: vmm.StepVMExits},
			{Pool: vm.GuestReclaimPool(), Work: sim.Duration(onlined) * vm.Cost.OnlineMetaPerBlock, Class: GuestClass, Label: vmm.StepRest, Weight: vmm.KthreadWeight},
		}
		if onlined > 0 {
			vm.CountExit("virtio-mem-plug", 1)
		}
		plugged := onlined * units.BlockSize
		start := vm.Sched.Now()
		d.Run(vm.Sched, steps, func(*stats.Breakdown, sim.Duration) {
			if d.Obs != nil {
				d.Obs.Span("virtio-mem/plug", obs.CatMemory, start,
					obs.I("plugged_bytes", plugged), obs.I("blocks", onlined))
			}
			d.Finish()
			onDone(plugged)
		})
	})
}

// Unplug offlines and removes enough blocks to cover bytes, migrating
// occupied pages out of candidate blocks. Blocks whose pages cannot be
// migrated (no free target memory) are skipped; the request then
// reclaims less than asked, as real virtio-mem does under pressure
// (§6.2.2). onDone fires when the host has released the frames.
func (d *Driver) Unplug(bytes int64, onDone func(vmm.ReclaimResult)) {
	d.Submit(func() { d.unplug(bytes, onDone) })
}

func (d *Driver) unplug(bytes int64, onDone func(vmm.ReclaimResult)) {
	vm := d.K.VM
	zone := d.K.Movable
	// A fault window may cut the request (possibly to nothing).
	want := int64(float64(units.BytesToBlocks(bytes)) * d.Fraction())

	candidates := zone.OnlineBlocks()
	switch d.Policy {
	case EmptiestFirst:
		occ := make(map[int]int64, len(candidates))
		for _, b := range candidates {
			occ[b] = zone.OccupiedInBlock(b)
		}
		sort.SliceStable(candidates, func(i, j int) bool {
			if occ[candidates[i]] != occ[candidates[j]] {
				return occ[candidates[i]] < occ[candidates[j]]
			}
			return candidates[i] > candidates[j]
		})
	case HighestFirst:
		sort.Sort(sort.Reverse(sort.IntSlice(candidates)))
	}

	var (
		offlined      []int
		migratedPages int64
		zeroedPages   int64
		migrateExtra  sim.Duration
	)
	for _, b := range candidates {
		if int64(len(offlined)) >= want {
			break
		}
		occupied := zone.IsolateBlock(b)
		start, count := zone.BlockRange(b)
		isolatedFree := count - occupied
		d.chunks = d.K.ChunksInRange(d.chunks[:0], start, count)
		aborted := false
		var blockMigrated int64
		for _, c := range d.chunks {
			pages, extra, ok := d.K.MigrateChunk(c)
			if !ok {
				aborted = true
				break
			}
			blockMigrated += pages
			migrateExtra += extra
		}
		if aborted {
			// Out of migration targets: put the block back together.
			// Pages already migrated stay migrated (their new copies
			// live elsewhere); the rest of the block is re-onlined.
			d.K.ReturnIsolatedGaps(zone, start, count)
			migratedPages += blockMigrated
			if vm.Cost.ZeroOnUnplug {
				zeroedPages += blockMigrated // zero-on-alloc of targets
			}
			continue
		}
		migratedPages += blockMigrated
		if vm.Cost.ZeroOnUnplug {
			// init_on_alloc zeroes both the isolated free pages and the
			// freshly allocated migration targets.
			zeroedPages += isolatedFree + blockMigrated
		}
		zone.FinishOffline(b)
		offlined = append(offlined, b)
	}

	exits := int64(len(offlined))
	if vm.Cost.BatchUnplugExits && exits > 1 {
		exits = 1
	}
	steps := []vmm.Step{
		{Pool: vm.GuestReclaimPool(), Work: sim.Duration(migratedPages)*vm.Cost.MigratePerPage + migrateExtra, Class: GuestClass, Label: vmm.StepMigration, Weight: vmm.KthreadWeight},
		{Pool: vm.GuestReclaimPool(), Work: sim.Duration(zeroedPages) * vm.Cost.ZeroPerPage, Class: GuestClass, Label: vmm.StepZeroing, Weight: vmm.KthreadWeight},
		{Pool: vm.GuestReclaimPool(), Work: sim.Duration(len(offlined)) * vm.Cost.OfflineMetaPerBlockVanilla, Class: GuestClass, Label: vmm.StepRest, Weight: vmm.KthreadWeight},
		{Pool: vm.HostThreads, Work: sim.Duration(exits) * vm.Cost.VMExitPerBlock, Class: HostClass, Label: vmm.StepVMExits},
	}
	vm.CountExit("virtio-mem-unplug", exits)

	reclaimed := int64(len(offlined)) * units.BlockSize
	blocks := append([]int(nil), offlined...)
	start := vm.Sched.Now()
	d.Run(vm.Sched, steps, func(bd *stats.Breakdown, total sim.Duration) {
		// Hot-remove done: the hypervisor madvise()s the frames away
		// and the commit budget returns to the host.
		var released int64
		for _, b := range blocks {
			start, count := zone.BlockRange(b)
			released += d.K.ReleaseRange(start, count)
			vm.Uncommit(count)
		}
		if d.Obs != nil {
			d.Obs.Span("virtio-mem/unplug", obs.CatMemory, start,
				obs.I("requested_bytes", bytes), obs.I("reclaimed_bytes", reclaimed),
				obs.I("migrated_pages", migratedPages), obs.I("zeroed_pages", zeroedPages),
				obs.I("blocks", int64(len(blocks))))
		}
		d.Finish()
		onDone(vmm.ReclaimResult{
			RequestedBytes: bytes,
			ReclaimedBytes: reclaimed,
			MigratedPages:  migratedPages,
			ZeroedPages:    zeroedPages,
			ReleasedPages:  released,
			Breakdown:      bd,
			Latency:        total,
		})
	})
}
