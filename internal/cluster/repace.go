package cluster

import (
	"squeezy/internal/costmodel"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/units"
)

// Recovery-storm control: when a whole rack dies, the exactly-once
// re-placement machinery would otherwise route every displaced
// invocation onto the survivors at one epoch boundary — a synchronized
// burst of boots and scale-ups against a fleet that just lost a chunk
// of its capacity. With Config.Repace set, displaced work instead
// enters a priority-ordered queue that the dispatcher drains at a
// bounded rate on its own timed boundaries, so the recovery load
// spreads over simulated time. The queue is dispatcher-owned serial
// state and its tick is an epoch boundary like any other, so pacing is
// byte-identical whatever order the hosts advance in.

// RepaceConfig turns on paced re-placement (Config.Repace; nil
// preserves immediate re-placement bit-for-bit). Zero-valued fields
// take the costmodel defaults.
type RepaceConfig struct {
	// PerTick bounds the displaced invocations re-dispatched per pacing
	// tick. Default costmodel.RepacePerTick.
	PerTick int
	// Every is the pacing cadence. Default costmodel.RepaceEvery.
	Every sim.Duration
	// Shed extends admission shedding through the recovery window: the
	// queued backlog's memory demand joins the broker-queued pages in
	// the overload signal (shouldShed), and the plain dispatch path
	// sheds on it too, so a 25%-capacity loss degrades by dropping
	// low-priority work instead of burying the survivors.
	Shed bool
}

// withDefaults fills the zero-valued fields from the cost-model
// constants.
func (r RepaceConfig) withDefaults() RepaceConfig {
	if r.PerTick <= 0 {
		r.PerTick = costmodel.RepacePerTick
	}
	if r.Every <= 0 {
		r.Every = costmodel.RepaceEvery
	}
	return r
}

// repaceEntry is one displaced invocation waiting for a pacing slot:
// a plain-path flight or a resilient rflight, plus the host it was
// displaced from (for the dispatch-time trace instant).
type repaceEntry struct {
	fl   *flight
	rfl  *rflight
	from int
}

func (e repaceEntry) priority() int {
	if e.rfl != nil {
		return e.rfl.fn.Priority
	}
	return e.fl.fn.Priority
}

func (e repaceEntry) fnName() string {
	if e.rfl != nil {
		return e.rfl.fn.Name
	}
	return e.fl.fn.Name
}

func (e repaceEntry) memLimit() int64 {
	if e.rfl != nil {
		return e.rfl.fn.MemoryLimit
	}
	return e.fl.fn.MemoryLimit
}

// queueRepace admits one displaced invocation to the pacing queue,
// keeping it sorted by descending priority, FIFO within a priority
// class, and arms the pacing tick if it isn't already. Runs serially
// at a boundary (re-placement is always boundary work).
func (c *Cluster) queueRepace(e repaceEntry) {
	c.Metrics.Paced++
	if c.fleetObs != nil {
		c.fleetObs.Count("repace/queued", 1)
		c.fleetObs.Instant("replace-queued: "+e.fnName(), obs.CatInvoke,
			obs.I("from_host", int64(e.from)), obs.I("depth", int64(len(c.repaceQ)+1)))
	}
	p := e.priority()
	i := len(c.repaceQ)
	for i > 0 && c.repaceQ[i-1].priority() < p {
		i--
	}
	c.repaceQ = append(c.repaceQ, repaceEntry{})
	copy(c.repaceQ[i+1:], c.repaceQ[i:])
	c.repaceQ[i] = e
	if c.repaceAt == 0 {
		c.repaceAt = c.now.Add(c.repace.Every)
	}
}

// nextRepace reports the pending pacing boundary, if armed.
func (c *Cluster) nextRepace() (sim.Time, bool) {
	if c.repaceAt == 0 {
		return 0, false
	}
	return c.repaceAt, true
}

// fireRepace releases up to PerTick queued re-placements at boundary t
// and re-arms the tick while work remains. Runs in the canonical
// boundary order after the resilience events and before the
// invocations due at t, so recovered work and fresh arrivals interleave
// deterministically.
func (c *Cluster) fireRepace(t sim.Time) {
	if c.repace == nil || c.repaceAt == 0 || c.repaceAt > t {
		return
	}
	budget := c.repace.PerTick
	for budget > 0 && len(c.repaceQ) > 0 {
		e := c.repaceQ[0]
		c.repaceQ[0] = repaceEntry{}
		c.repaceQ = c.repaceQ[1:]
		budget--
		c.dispatchRepace(e)
	}
	if len(c.repaceQ) > 0 {
		c.repaceAt = t.Add(c.repace.Every)
	} else {
		c.repaceAt = 0
	}
}

// dispatchRepace re-places one displaced invocation through the normal
// machinery. Replaced counts here — at actual re-dispatch — mirroring
// the unpaced path's accounting.
func (c *Cluster) dispatchRepace(e repaceEntry) {
	if e.rfl != nil && e.rfl.resolved {
		return // a surviving racer won while this one waited
	}
	c.Metrics.Replaced++
	if c.fleetObs != nil {
		c.fleetObs.Count("replaced", 1)
		c.fleetObs.Instant("replace: "+e.fnName(), obs.CatInvoke,
			obs.I("from_host", int64(e.from)))
	}
	if e.rfl != nil {
		c.launchAttempt(e.rfl)
		return
	}
	c.route(e.fl.fn, e.fl.arrival, e.fl.onDone, e.fl)
}

// repaceBacklogPages sums the queued re-placements' memory demand —
// displaced work the fleet has promised to serve but not yet placed.
// It joins the broker-queued pages in the admission-shed signal, so
// the overload measure sees a rack's worth of displaced demand the
// moment the rack dies, not only after the queue drains onto brokers.
func (c *Cluster) repaceBacklogPages() int64 {
	var pages int64
	for _, e := range c.repaceQ {
		pages += units.BytesToPages(e.memLimit())
	}
	return pages
}
