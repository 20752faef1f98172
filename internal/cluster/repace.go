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
// state, ordered by priority rather than time; only its tick waits in
// the boundary queue (boundary.go), an epoch boundary like any other,
// so pacing is byte-identical whatever order the hosts advance in.
// Queued entries are the displaced attempts themselves: each names its
// flight and the host it was lost with.

// RepaceConfig turns on paced re-placement (Config.Repace; nil
// re-places displaced work at once). Zero-valued fields take the
// costmodel defaults.
type RepaceConfig struct {
	// PerTick bounds the displaced invocations re-dispatched per pacing
	// tick. Default costmodel.RepacePerTick.
	PerTick int
	// Every is the pacing cadence. Default costmodel.RepaceEvery.
	Every sim.Duration
	// Shed extends admission shedding through the recovery window: the
	// queued backlog's memory demand joins the broker-queued pages in
	// the overload signal (shouldShed), and admission sheds on it with
	// or without the resilience layer, so a 25%-capacity loss degrades
	// by dropping low-priority work instead of burying the survivors.
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

// queueRepace admits one displaced attempt to the pacing queue,
// keeping it sorted by descending priority, FIFO within a priority
// class. Queueing into an empty queue arms the pacing tick; the tick
// (boundary.go) releases up to PerTick entries in the canonical
// boundary order — after the resilience decisions, before the
// invocations due at its boundary — and re-arms while work remains.
// Runs serially at a boundary (re-placement is always boundary work).
func (c *Cluster) queueRepace(att *attempt) {
	fn := att.fl.fn
	c.Metrics.Paced++
	if c.fleetObs != nil {
		c.fleetObs.Count("repace/queued", 1)
		c.fleetObs.Instant("replace-queued: "+fn.Name, obs.CatInvoke,
			obs.I("from_host", int64(att.node.ID)), obs.I("depth", int64(len(c.repaceQ)+1)))
	}
	if len(c.repaceQ) == 0 {
		c.q.push(entry{t: c.now.Add(c.repace.Every), class: classPacing})
	}
	i := len(c.repaceQ)
	for i > 0 && c.repaceQ[i-1].fl.fn.Priority < fn.Priority {
		i--
	}
	c.repaceQ = append(c.repaceQ, nil)
	copy(c.repaceQ[i+1:], c.repaceQ[i:])
	c.repaceQ[i] = att
}

// redispatch re-places a displaced attempt's flight through the normal
// machinery, paced or not. Replaced counts here — at actual
// re-dispatch.
func (c *Cluster) redispatch(att *attempt) {
	fl := att.fl
	if fl.resolved {
		return // a surviving racer won while this one waited
	}
	c.Metrics.Replaced++
	if c.fleetObs != nil {
		c.fleetObs.Count("replaced", 1)
		c.fleetObs.Instant("replace: "+fl.fn.Name, obs.CatInvoke,
			obs.I("from_host", int64(att.node.ID)))
	}
	c.launch(fl, fl.fn, fl.onDone)
}

// repaceBacklogPages sums the queued re-placements' memory demand —
// displaced work the fleet has promised to serve but not yet placed.
// It joins the broker-queued pages in the admission-shed signal, so
// the overload measure sees a rack's worth of displaced demand the
// moment the rack dies, not only after the queue drains onto brokers.
func (c *Cluster) repaceBacklogPages() int64 {
	var pages int64
	for _, att := range c.repaceQ {
		pages += units.BytesToPages(att.fl.fn.MemoryLimit)
	}
	return pages
}
