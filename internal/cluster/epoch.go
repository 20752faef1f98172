package cluster

import (
	"fmt"

	"squeezy/internal/fault"
	"squeezy/internal/sim"
	"squeezy/internal/trace"
	"squeezy/internal/workload"
)

// The epoch engine: a fleet run is executed as per-host
// sub-simulations that rendezvous at every dispatcher boundary.
//
// Hosts in a fleet interact only through the dispatcher — warm
// routing, scale-up placement, admission — and the dispatcher only
// acts at known times: the invocation timestamps of the trace and the
// entries of its boundary queue (boundary.go) — fleet events, fault
// windows opening and closing, resilience decisions, pacing ticks and
// the fleet-wide memory-sample ticks. Those times are the epochs. The
// engine repeats three steps:
//
//  1. advance: every host's scheduler runs to the next boundary T with
//     sim.Scheduler.RunUntilEpoch — all host events strictly before T
//     fire, host clocks land exactly on T.
//  2. merge: with every host paused at T, the dispatcher fires the
//     work due at T in canonical order — finished drains retire, then
//     fleet events, fault closes, fault opens, settled attempts
//     resolve, resilience decisions, the pacing tick, the invocations
//     in trace order, and last the memory sample and the autoscaler.
//     Routing reads host state settled through T-1 plus the
//     synchronous effects of earlier boundary work at T.
//  3. repeat, until the trace and the queue are exhausted (queued work
//     past DrainUntil never sets a boundary); then every host drains
//     to the horizon.
//
// The whole run stays on the caller's goroutine. A boundary falls at
// every invocation, so an epoch carries a few microseconds of host
// work, and even the final drain is a few milliseconds of a fleet
// cell's wall: handing either to another worker would cost more than
// it saves, and the experiment runner already keeps every core busy
// with whole cells.
//
// Determinism argument: a host's event stream between boundaries is a
// pure function of its state at the last boundary (host-local events
// only, host-local seeds only); the dispatcher step is serial and
// iterates hosts in ID order; completion metrics accumulate host-
// locally and merge in host-ID order. Nothing depends on the order in
// which hosts advance to a boundary or drain to the horizon — the
// order-invariance suites run every play at ID order, reversed order
// and per-epoch shuffles (the hostOrder test hook) and require
// identical events, tables and traces.

// PlayConfig shapes one epoch-driven fleet run.
type PlayConfig struct {
	// TickEvery is the fleet memory-sampling cadence (0 disables);
	// samples are taken at 0, TickEvery, ... through TickUntil (and no
	// later than DrainUntil, like every other queued boundary).
	TickEvery sim.Duration
	TickUntil sim.Time
	// DrainUntil is the horizon every host runs to after the last
	// boundary, so slow requests finish and their latencies count.
	DrainUntil sim.Time
	// Events is the churn schedule: fleet-shape changes fired at epoch
	// boundaries on simulated time (fleetdyn.go). Events need not be
	// sorted; same-time events fire in the given order. Events past
	// DrainUntil never fire.
	Events []FleetEvent
	// Autoscale, when non-nil, drives host count from aggregate memory
	// pressure, evaluated after each memory sample — so autoscaling
	// requires TickEvery > 0.
	Autoscale *AutoscaleConfig
	// Faults is the fault plan: injection windows opened and closed at
	// epoch boundaries (faults.go). FaultSeed seeds every host's
	// probabilistic decision stream; with an empty plan the run is
	// byte-identical to a fault-free one.
	Faults    []fault.Event
	FaultSeed uint64
}

// Play replays a time-sorted invocation stream through the dispatcher
// under the epoch protocol described above, resolving each
// invocation's function rank through fn as it is dispatched. It leaves
// every host at DrainUntil and the merged fleet metrics ready in
// Stats(). The stream is consumed exactly once, one invocation ahead
// of the boundary it sets: peak memory is bounded by the stream's own
// cursor state plus the fleet, independent of how many invocations
// flow through — the property the memory-bound regression test
// asserts for million-invocation multi-day runs.
func (c *Cluster) Play(src trace.Stream, fn func(rank int) *workload.Function, pc PlayConfig) {
	c.autoscale = pc.Autoscale
	c.ScheduleFleetEvents(pc.Events)
	c.ScheduleFaults(pc.Faults, pc.FaultSeed)
	c.tickEvery, c.tickUntil = pc.TickEvery, pc.TickUntil
	if pc.TickEvery > 0 && pc.TickUntil >= 0 {
		// Pre-size the fleet memory series for the full tick count: a
		// multi-day run at 1 s cadence appends hundreds of thousands of
		// points, and growing through repeated appends would double the
		// buffers a dozen times mid-run.
		n := int(pc.TickUntil/sim.Time(pc.TickEvery)) + 1
		c.Metrics.Committed.Reserve(n)
		c.Metrics.Populated.Reserve(n)
		c.q.push(entry{t: 0, class: classMemory})
	}
	next, more := src.Next()
	for {
		t, ok := c.nextBoundary(next.T, more, pc.DrainUntil)
		if !ok {
			break
		}
		if t < c.now {
			panic(fmt.Sprintf("cluster: invocation stream not sorted: %d after %d", t, c.now))
		}
		c.AdvanceTo(t)
		c.fireQueued(t)
		for more && next.T == t {
			c.Invoke(fn(next.Func), nil)
			next, more = src.Next()
		}
		c.fireDue(t, classMemory)
	}
	c.Drain(pc.DrainUntil)
	c.finishResil()
}

// AdvanceTo advances every host to the epoch boundary t: all host
// events strictly before t fire, every host clock — and the dispatcher
// clock — lands exactly on t. The dispatcher may then route
// invocations or sample memory against the paused fleet.
func (c *Cluster) AdvanceTo(t sim.Time) {
	for _, n := range c.advanceOrder() {
		n.Sched.RunUntilEpoch(t)
	}
	c.now = t
}

// Drain runs every host through t inclusive — unlike AdvanceTo, events
// at exactly t fire too — and sets the dispatcher clock to t.
func (c *Cluster) Drain(t sim.Time) {
	if t < c.now {
		t = c.now
	}
	for _, n := range c.advanceOrder() {
		n.Sched.RunUntil(t)
	}
	c.now = t
}

// advanceOrder is the order hosts advance in: host-ID order, or
// whatever permutation of it the hostOrder test hook returns.
func (c *Cluster) advanceOrder() []*Node {
	if c.hostOrder != nil {
		return c.hostOrder(c.live)
	}
	return c.live
}
