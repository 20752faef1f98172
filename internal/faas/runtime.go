package faas

import (
	"squeezy/internal/costmodel"
	"squeezy/internal/hostmem"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/units"
)

// Runtime coordinates several N:1 FuncVMs against one host memory pool:
// it owns the broker, reacts to memory pressure by evicting idle
// instances across VMs (oldest first), and drains HarvestVM slack
// buffers before touching live instances (§6.2.2).
type Runtime struct {
	Sched  *sim.Scheduler
	Host   *hostmem.Host
	Cost   *costmodel.Model
	Broker *Broker
	VMs    []*FuncVM

	// ProactiveFactor scales pressure evictions: 1.0 evicts exactly the
	// deficit; HarvestVM's proactive reclamation uses >1 to reclaim
	// ahead of demand (§6.2.2).
	ProactiveFactor float64

	// Recycle, when non-nil, backs every AddVM with a shared pool: the
	// guest kernels of this runtime's VMs build from (and, via Release,
	// return to) its arena cache, and the FuncVM shells and inner
	// vmm.VMs themselves are recycled through it.
	Recycle *Recycler

	// Obs, when non-nil, records the host's memory-mechanics events:
	// pressure signals here, cold-start phases and reclaim detail in the
	// VMs AddVM hands it to. Set it before the first AddVM.
	Obs *obs.Recorder

	// Faults, when non-nil, is the host's fault-injection window state;
	// AddVM hands it to every VM (boot failures, crashes) and to the
	// VM's reclaim backend (stalled/partial commands). Set it before
	// the first AddVM.
	Faults FaultInjector

	reclaimInFlight int64         // pages expected from in-flight evictions
	reclaimRecs     []*reclaimRec // outstanding evictions, oldest first
}

// reclaimRec tracks one started eviction's not-yet-arrived pages, so
// completed reclaims retire exactly the share they delivered and the
// drain timer only writes off what its own eviction still owes.
type reclaimRec struct {
	pages int64
}

// NewRuntime creates a runtime over a host pool.
func NewRuntime(sched *sim.Scheduler, host *hostmem.Host, cost *costmodel.Model) *Runtime {
	r := &Runtime{
		Sched:           sched,
		Host:            host,
		Cost:            cost,
		Broker:          NewBroker(host, sched),
		ProactiveFactor: 1.0,
	}
	r.Broker.OnPressure = r.handlePressure
	r.Broker.OnReclaimed = r.noteReclaimCompleted
	return r
}

// AddVM boots a FuncVM and registers it with the runtime. With a
// recycler attached, the VM's kernel arenas, its vmm.VM, and the agent
// shell all come out of the pool.
func (r *Runtime) AddVM(cfg VMConfig) *FuncVM {
	fv := newFuncVM(r.Recycle, r.Sched, r.Host, r.Cost, r.Broker, r.Obs, r.Faults, cfg)
	r.VMs = append(r.VMs, fv)
	return fv
}

// Release retires every VM — guest-kernel arenas, inner vmm.VMs, and
// agent shells — into the runtime's recycler (no-op without one) and
// forgets them, so a repeated Release cannot retire a shell the pool
// has since handed to another runtime. Call it only when the
// simulation is over: the runtime and its VMs must not be used
// afterwards.
func (r *Runtime) Release() {
	for _, fv := range r.VMs {
		fv.Release()
	}
	r.VMs = nil
}

// handlePressure frees host memory for queued scale-ups: drain harvest
// buffers first, then evict idle instances oldest-first across VMs.
func (r *Runtime) handlePressure(deficitPages int64) {
	needed := deficitPages - r.reclaimInFlight
	if needed <= 0 {
		return
	}
	if r.Obs != nil {
		r.Obs.Count("pressure_events", 1)
		r.Obs.Instant("pressure", obs.CatMemory, obs.I("deficit_pages", needed))
	}
	target := int64(float64(needed) * r.ProactiveFactor)

	// 1) Slack buffers are free memory in disguise; unplug them first.
	for _, fv := range r.VMs {
		if target <= 0 {
			break
		}
		released := fv.ReleaseHarvestBuffer(units.PagesToBytes(target))
		pages := units.BytesToPages(released)
		r.noteReclaimStarted(fv, pages)
		target -= pages
	}

	// 2) Evict idle instances, globally oldest-idle first.
	for target > 0 {
		fv := r.oldestIdleVM()
		if fv == nil {
			return // nothing evictable; waiters stay queued
		}
		pages := units.BytesToPages(fv.instBytes)
		fv.pressureNext = true // tag the unplug as pressure-initiated
		fv.EvictOldestIdle()
		r.noteReclaimStarted(fv, pages)
		target -= pages
	}
}

// noteReclaimStarted tracks in-flight reclamation so overlapping
// pressure signals don't over-evict. The accounting retires through
// two paths: completed reclaims retire their delivered pages promptly
// (noteReclaimCompleted, via Broker.OnReclaimed), and a drain timer
// writes off whatever this eviction still owes — the unplug stalled,
// or delivered less than expected — and re-raises pressure.
func (r *Runtime) noteReclaimStarted(fv *FuncVM, pages int64) {
	if pages <= 0 {
		return
	}
	rec := &reclaimRec{pages: pages}
	r.reclaimRecs = append(r.reclaimRecs, rec)
	r.reclaimInFlight += pages
	r.Sched.After(costmodel.ReclaimDrainTimeout, func() {
		r.reclaimInFlight -= rec.pages
		rec.pages = 0
		r.dropSettledRecs()
		r.Broker.Pump()
		if r.Broker.QueuedPages() > 0 {
			r.handlePressure(r.Broker.QueuedPages())
		}
	})
}

// noteReclaimCompleted retires in-flight accounting as reclaimed pages
// actually land, consuming the oldest outstanding evictions first.
// Without it the counter would stay inflated until the drain timer and
// suppress the pressure re-raise of a partial pump (Broker.Pump), and
// starved waiters would stall the full timeout.
func (r *Runtime) noteReclaimCompleted(pages int64) {
	for pages > 0 && len(r.reclaimRecs) > 0 {
		rec := r.reclaimRecs[0]
		take := rec.pages
		if pages < take {
			take = pages
		}
		rec.pages -= take
		r.reclaimInFlight -= take
		pages -= take
		if rec.pages == 0 {
			r.reclaimRecs = r.reclaimRecs[1:]
		}
	}
}

// dropSettledRecs prunes fully-retired records after a timer write-off
// (completed records at the head are pruned inline by
// noteReclaimCompleted).
func (r *Runtime) dropSettledRecs() {
	keep := r.reclaimRecs[:0]
	for _, rec := range r.reclaimRecs {
		if rec.pages > 0 {
			keep = append(keep, rec)
		}
	}
	r.reclaimRecs = keep
}

// ReclaimInFlightPages returns the pages expected from in-flight
// pressure evictions — memory that is on its way back to the pool but
// not yet free. Placement policies use it to judge how much of a host's
// deficit is already being paid down.
func (r *Runtime) ReclaimInFlightPages() int64 { return r.reclaimInFlight }

// IdleReclaimablePages returns the pages the runtime could start
// reclaiming right now: idle instances plus plugged slack buffers. A
// deficit beyond this number is stranded until a keep-alive expires —
// the stall placement policies most want to avoid.
func (r *Runtime) IdleReclaimablePages() int64 {
	var pages int64
	for _, fv := range r.VMs {
		pages += int64(fv.IdleInstances()) * units.BytesToPages(fv.InstanceBytes())
		pages += units.BytesToPages(fv.HarvestBufferBytes())
	}
	return pages
}

func (r *Runtime) oldestIdleVM() *FuncVM {
	var best *FuncVM
	var bestSince sim.Time
	for _, fv := range r.VMs {
		if len(fv.idle) == 0 {
			continue
		}
		since := fv.idle[0].idleSince
		if best == nil || since < bestSince {
			best, bestSince = fv, since
		}
	}
	return best
}

// CommittedBytes returns host memory committed across all VMs plus
// pending grants.
func (r *Runtime) CommittedBytes() int64 {
	return units.PagesToBytes(r.Host.CommittedPages())
}

// PopulatedBytes returns host frames in use across all VMs.
func (r *Runtime) PopulatedBytes() int64 {
	return units.PagesToBytes(r.Host.PopulatedPages())
}

// GuestAllocatedBytes sums guest-side allocated memory across VMs (the
// guest line of Figure 1).
func (r *Runtime) GuestAllocatedBytes() int64 {
	var pages int64
	for _, fv := range r.VMs {
		pages += fv.K.AllocatedPages()
	}
	return units.PagesToBytes(pages)
}

// LiveInstances sums live instances across VMs.
func (r *Runtime) LiveInstances() int {
	n := 0
	for _, fv := range r.VMs {
		n += fv.LiveInstances()
	}
	return n
}

// IdleInstances sums idle (warm, not serving) instances across VMs —
// the warm pool a host failure destroys.
func (r *Runtime) IdleInstances() int {
	n := 0
	for _, fv := range r.VMs {
		n += fv.IdleInstances()
	}
	return n
}
