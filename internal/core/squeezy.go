package core

import (
	"fmt"

	"squeezy/internal/guestos"
	"squeezy/internal/mem"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

// CPU accounting classes.
const (
	GuestClass = "squeezy"
	HostClass  = "squeezy-vmm"
)

// PartitionState is the lifecycle state of a Squeezy partition.
type PartitionState int

// Partition states.
const (
	// PartEmpty: zone struct exists, no memory plugged.
	PartEmpty PartitionState = iota
	// PartFree: memory plugged and onlined, no instance assigned;
	// available for Attach or reclaimable by Unplug.
	PartFree
	// PartReserved: assigned to a live instance (partition_users > 0).
	PartReserved
)

func (s PartitionState) String() string {
	switch s {
	case PartEmpty:
		return "empty"
	case PartFree:
		return "free"
	case PartReserved:
		return "reserved"
	default:
		return fmt.Sprintf("PartitionState(%d)", int(s))
	}
}

// Partition is one fixed-size Squeezy partition.
type Partition struct {
	ID    int
	Zone  *mem.Zone
	state PartitionState
	users int // partition_users: processes assigned to this partition
}

// State returns the partition's lifecycle state.
func (p *Partition) State() PartitionState { return p.state }

// Users returns the partition_users reference count.
func (p *Partition) Users() int { return p.users }

// Config sizes a Squeezy manager.
type Config struct {
	// PartitionBytes is the rated size of each private partition — the
	// function's user-set memory limit (rounded up to 128 MiB blocks).
	PartitionBytes int64
	// Concurrency is N, the maximum concurrent instances (§4.1).
	Concurrency int
	// SharedBytes sizes the shared partition for file-backed pages;
	// it is plugged and populated at boot. Zero disables it (file pages
	// then fall back to ZONE_MOVABLE).
	SharedBytes int64
}

// Manager is the Squeezy memory manager extension of one guest kernel.
// Its plug and unplug commands share one device queue (vmm.Device),
// which also carries the fault hooks.
type Manager struct {
	vmm.Device

	K   *guestos.Kernel
	Cfg Config

	// Obs, when non-nil, records a span per plug/unplug command;
	// recording never alters the command.
	Obs *obs.Recorder

	Shared *mem.Zone
	parts  []*Partition
	byZone map[*mem.Zone]*Partition

	// waitq holds Attach requests that arrived before a populated
	// partition was available (§4.1, "Squeezy waitqueue").
	waitq []waiter
}

type waiter struct {
	proc *guestos.Process
	fn   func(*Partition)
}

// NewManager creates the N partition zones and the shared partition at
// boot time and hooks the kernel's fork/exit paths. The shared
// partition is plugged and populated immediately (its host commit must
// succeed); private partitions start empty.
func NewManager(k *guestos.Kernel, cfg Config) *Manager {
	if cfg.Concurrency <= 0 {
		panic("core: concurrency factor must be positive")
	}
	if cfg.PartitionBytes <= 0 {
		panic("core: partition size must be positive")
	}
	m := &Manager{K: k, Cfg: cfg, byZone: make(map[*mem.Zone]*Partition)}
	partBytes := units.AlignUp(cfg.PartitionBytes, units.BlockSize)
	shBytes := units.AlignUp(max(cfg.SharedBytes, 0), units.BlockSize)
	k.ReserveZones(int64(cfg.Concurrency)*partBytes + shBytes)
	for i := 0; i < cfg.Concurrency; i++ {
		z := k.AddZone(fmt.Sprintf("squeezy%d", i), mem.ZoneSqueezyPrivate, partBytes)
		p := &Partition{ID: i, Zone: z, state: PartEmpty}
		m.parts = append(m.parts, p)
		m.byZone[z] = p
	}
	if cfg.SharedBytes > 0 {
		m.Shared = k.AddZone("squeezy-shared", mem.ZoneSqueezyShared, shBytes)
		if !k.VM.Commit(units.BytesToPages(shBytes)) {
			panic("core: host cannot back the shared partition")
		}
		for i := 0; i < m.Shared.Blocks(); i++ {
			m.Shared.OnlineBlock(i)
		}
		k.SharedZone = m.Shared
	}
	k.OnProcExit = m.onExit
	k.OnProcFork = m.onFork
	return m
}

// Partitions returns all partitions in ID order.
func (m *Manager) Partitions() []*Partition { return m.parts }

// CountState returns how many partitions are in the given state.
func (m *Manager) CountState(s PartitionState) int {
	n := 0
	for _, p := range m.parts {
		if p.state == s {
			n++
		}
	}
	return n
}

// PartitionBlocks returns blocks per private partition.
func (m *Manager) PartitionBlocks() int64 {
	return units.BytesToBlocks(units.AlignUp(m.Cfg.PartitionBytes, units.BlockSize))
}

// Plug populates nParts empty partitions with hotplugged memory
// (triggered by the hypervisor on a scale-up event, Figure 4 step 2).
// onDone receives how many partitions were populated once the memory is
// online; waiting Attach calls are then served in FIFO order.
func (m *Manager) Plug(nParts int, onDone func(plugged int)) {
	m.Submit(func() {
		vm := m.K.VM
		var plugged []*Partition
		for _, p := range m.parts {
			if len(plugged) >= nParts {
				break
			}
			if p.state != PartEmpty {
				continue
			}
			if !vm.Commit(p.Zone.Pages()) {
				break
			}
			for i := 0; i < p.Zone.Blocks(); i++ {
				p.Zone.OnlineBlock(i)
			}
			plugged = append(plugged, p)
		}
		blocks := int64(0)
		for _, p := range plugged {
			blocks += int64(p.Zone.Blocks())
		}
		steps := []vmm.Step{
			{Pool: vm.HostThreads, Work: vm.Cost.PlugHostFixed, Class: HostClass, Label: vmm.StepVMExits},
			{Pool: vm.GuestReclaimPool(), Work: sim.Duration(blocks) * vm.Cost.OnlineMetaPerBlock, Class: GuestClass, Label: vmm.StepRest, Weight: vmm.KthreadWeight},
		}
		if len(plugged) > 0 {
			vm.CountExit("squeezy-plug", 1)
		}
		start := vm.Sched.Now()
		m.Run(vm.Sched, steps, func(*stats.Breakdown, sim.Duration) {
			for _, p := range plugged {
				p.state = PartFree
			}
			if m.Obs != nil {
				m.Obs.Span("squeezy/plug", obs.CatMemory, start,
					obs.I("partitions", int64(len(plugged))), obs.I("blocks", blocks))
			}
			m.Finish()
			m.wakeWaiters()
			onDone(len(plugged))
		})
	})
}

// Attach implements the Squeezy syscall: it assigns a free populated
// partition to proc and confines the process's anonymous allocations to
// it. If no partition is available the request parks on the waitqueue
// until a Plug completes (§4.1). onAttached runs at assignment time.
func (m *Manager) Attach(proc *guestos.Process, onAttached func(*Partition)) {
	if p := m.takeFree(); p != nil {
		m.assign(p, proc)
		onAttached(p)
		return
	}
	m.waitq = append(m.waitq, waiter{proc: proc, fn: onAttached})
}

// WaitqueueLen returns the number of parked Attach requests.
func (m *Manager) WaitqueueLen() int { return len(m.waitq) }

func (m *Manager) takeFree() *Partition {
	for _, p := range m.parts {
		if p.state == PartFree {
			return p
		}
	}
	return nil
}

func (m *Manager) assign(p *Partition, proc *guestos.Process) {
	p.state = PartReserved
	p.users = 1
	proc.AssignedZone = p.Zone
}

func (m *Manager) wakeWaiters() {
	for len(m.waitq) > 0 {
		p := m.takeFree()
		if p == nil {
			return
		}
		w := m.waitq[0]
		m.waitq = m.waitq[1:]
		m.assign(p, w.proc)
		w.fn(p)
	}
}

// onFork bumps partition_users when a Squeezy process forks (§4.1,
// "Handling fork()").
func (m *Manager) onFork(parent, child *guestos.Process) {
	if p, ok := m.byZone[parent.AssignedZone]; ok {
		p.users++
	}
}

// onExit drops partition_users on process exit; at zero the partition
// becomes free, hence reclaimable by the unplug path.
func (m *Manager) onExit(proc *guestos.Process) {
	p, ok := m.byZone[proc.AssignedZone]
	if !ok {
		return
	}
	if p.users <= 0 {
		panic(fmt.Sprintf("core: partition %d users underflow", p.ID))
	}
	p.users--
	if p.users == 0 {
		if got := p.Zone.NrAllocated(); got != 0 {
			panic(fmt.Sprintf("core: partition %d freed with %d pages still allocated", p.ID, got))
		}
		p.state = PartFree
		// A freed partition can serve a parked Attach directly —
		// recycling it without an unplug/replug round trip.
		m.wakeWaiters()
	}
}

// Unplug reclaims up to nParts free partitions instantly: their blocks
// are guaranteed empty, so offlining involves zero migrations and zero
// zeroing (Figure 4 step 6), and each partition's zone goes offline in
// one step (guestos.Kernel.OfflineZone) rather than block by block.
// onDone receives the result once the host has madvise()d the frames
// away. RequestedBytes is the request as issued, even when a fault
// window cuts how many partitions the command attempts.
func (m *Manager) Unplug(nParts int, onDone func(vmm.ReclaimResult)) {
	m.Submit(func() {
		vm := m.K.VM
		req := int64(nParts) * m.PartitionBlocks() * units.BlockSize
		// A fault window may cut the request (possibly to nothing).
		nParts = int(float64(nParts) * m.Fraction())
		var victims []*Partition
		for _, p := range m.parts {
			if len(victims) >= nParts {
				break
			}
			if p.state == PartFree {
				victims = append(victims, p)
			}
		}
		var blocks int64
		for _, p := range victims {
			m.K.OfflineZone(p.Zone)
			blocks += int64(p.Zone.Blocks())
			p.state = PartEmpty
		}
		exits := blocks
		if vm.Cost.BatchUnplugExits && exits > 1 {
			exits = 1
		}
		steps := []vmm.Step{
			// Squeezy's allocator is hot(un)plug-aware: zeroing is
			// skipped entirely; the memory is zeroed by whoever
			// allocates it next, host or guest (§4.1).
			{Pool: vm.GuestReclaimPool(), Work: sim.Duration(blocks) * vm.Cost.OfflineMetaPerBlockSqueezy, Class: GuestClass, Label: vmm.StepRest, Weight: vmm.KthreadWeight},
			{Pool: vm.HostThreads, Work: sim.Duration(exits) * vm.Cost.VMExitPerBlock, Class: HostClass, Label: vmm.StepVMExits},
		}
		vm.CountExit("squeezy-unplug", exits)
		reclaimed := blocks * units.BlockSize
		cmdStart := vm.Sched.Now()
		m.Run(vm.Sched, steps, func(bd *stats.Breakdown, total sim.Duration) {
			var released int64
			for _, p := range victims {
				for i := 0; i < p.Zone.Blocks(); i++ {
					start, count := p.Zone.BlockRange(i)
					released += m.K.ReleaseRange(start, count)
					vm.Uncommit(count)
				}
			}
			if m.Obs != nil {
				m.Obs.Span("squeezy/unplug", obs.CatMemory, cmdStart,
					obs.I("requested_bytes", req), obs.I("reclaimed_bytes", reclaimed),
					obs.I("blocks", blocks))
			}
			m.Finish()
			onDone(vmm.ReclaimResult{
				RequestedBytes: req,
				ReclaimedBytes: reclaimed,
				ReleasedPages:  released,
				Breakdown:      bd,
				Latency:        total,
			})
		})
	})
}

// FreeReclaimable reports how many partitions are immediately
// unpluggable.
func (m *Manager) FreeReclaimable() int { return m.CountState(PartFree) }
