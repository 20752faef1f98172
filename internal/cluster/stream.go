package cluster

import (
	"fmt"

	"squeezy/internal/sim"
)

// InvocationStream is the dispatcher's pull-based invocation source:
// the epoch loop peeks the next arrival time to pick each boundary,
// then pops every invocation due at that boundary. A streaming source
// (e.g. a merged trace cursor) holds O(funcs) state, so a multi-day
// million-invocation replay never materializes its trace; a slice is
// adapted via SliceStream. Times must be non-decreasing.
type InvocationStream interface {
	// Peek returns the arrival time of the next invocation without
	// consuming it; ok is false when the stream is exhausted.
	Peek() (t sim.Time, ok bool)
	// Next consumes and returns the next invocation.
	Next() (Invocation, bool)
}

// sliceStream adapts a materialized invocation slice to the stream
// interface.
type sliceStream struct {
	invs []Invocation
	i    int
}

// SliceStream wraps a time-sorted invocation slice as an
// InvocationStream. PlayStream(SliceStream(invs), pc) is byte-identical
// to Play(invs, pc) — Play is implemented exactly that way.
func SliceStream(invs []Invocation) InvocationStream {
	return &sliceStream{invs: invs}
}

func (s *sliceStream) Peek() (sim.Time, bool) {
	if s.i >= len(s.invs) {
		return 0, false
	}
	return s.invs[s.i].T, true
}

func (s *sliceStream) Next() (Invocation, bool) {
	if s.i >= len(s.invs) {
		return Invocation{}, false
	}
	inv := s.invs[s.i]
	s.i++
	return inv, true
}

// PlayStream replays a time-sorted invocation stream through the
// dispatcher under the epoch protocol (see Play and the package
// comment in epoch.go). The stream is consumed exactly once, one
// boundary at a time: peak memory is bounded by the stream's own
// cursor state plus the fleet, independent of how many invocations
// flow through — the property the memory-bound regression test
// asserts for million-invocation multi-day runs.
func (c *Cluster) PlayStream(src InvocationStream, pc PlayConfig) {
	c.autoscale = pc.Autoscale
	c.ScheduleFleetEvents(pc.Events)
	c.ScheduleFaults(pc.Faults, pc.FaultSeed)
	ticks := pc.TickEvery > 0
	if ticks {
		// Pre-size the fleet memory series for the full tick count: a
		// multi-day run at 1 s cadence appends hundreds of thousands of
		// points, and growing through repeated appends would double the
		// buffers a dozen times mid-run.
		if n := int(pc.TickUntil/sim.Time(pc.TickEvery)) + 1; n > 0 {
			c.Metrics.Committed.Reserve(n)
			c.Metrics.Populated.Reserve(n)
		}
	}
	var nextTick sim.Time
	for {
		// Next boundary: the earliest of the next invocation, the next
		// tick, the next due fleet event, the next fault-window
		// transition, and the next live resilience decision.
		t, have := sim.Time(0), false
		consider := func(x sim.Time) {
			if !have || x < t {
				t, have = x, true
			}
		}
		late := func(x sim.Time) sim.Time {
			if x < c.now {
				return c.now // late-queued event fires at the next boundary
			}
			return x
		}
		if it, ok := src.Peek(); ok {
			consider(it)
		}
		if ticks && nextTick <= pc.TickUntil {
			consider(nextTick)
		}
		if len(c.fleetQ) > 0 && c.fleetQ[0].T <= pc.DrainUntil {
			consider(late(c.fleetQ[0].T))
		}
		if ft, ok := c.nextFault(pc.DrainUntil); ok {
			consider(late(ft))
		}
		if rt, ok := c.nextResil(); ok && rt <= pc.DrainUntil {
			consider(late(rt))
		}
		if pt, ok := c.nextRepace(); ok && pt <= pc.DrainUntil {
			consider(late(pt))
		}
		if !have {
			break
		}
		if t < c.now {
			panic(fmt.Sprintf("cluster: invocation stream not sorted: %d after %d", t, c.now))
		}
		c.AdvanceTo(t)
		// Canonical boundary order: finished drains retire, fleet
		// events fire in queue order, fault windows transition (closes
		// before opens), settled attempts resolve (so a completion
		// beats a same-instant timeout), resilience decisions fire,
		// paced re-placements release, invocations route in trace
		// order, then the memory sample and the autoscaler.
		c.settleDrains()
		c.fireFleetEvents(t)
		c.fireFaultEvents(t)
		c.resolveSettled()
		c.fireResilEvents(t)
		c.fireRepace(t)
		for {
			it, ok := src.Peek()
			if !ok || it != t {
				break
			}
			inv, _ := src.Next()
			c.Invoke(inv.Fn, nil)
		}
		if ticks && nextTick == t && t <= pc.TickUntil {
			c.SampleMemory()
			nextTick += sim.Time(pc.TickEvery)
			c.autoscaleTick()
		}
	}
	c.Drain(pc.DrainUntil)
	c.finishResil()
}
