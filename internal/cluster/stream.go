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
	for {
		t, ok := c.nextBoundary(src, pc.DrainUntil)
		if !ok {
			break
		}
		if t < c.now {
			panic(fmt.Sprintf("cluster: invocation stream not sorted: %d after %d", t, c.now))
		}
		c.AdvanceTo(t)
		c.fireQueued(t)
		for {
			it, ok := src.Peek()
			if !ok || it != t {
				break
			}
			inv, _ := src.Next()
			c.Invoke(inv.Fn, nil)
		}
		c.fireDue(t, classMemory)
	}
	c.Drain(pc.DrainUntil)
	c.finishResil()
}
