package cluster

import (
	"cmp"

	"squeezy/internal/sim"
)

// The boundary queue holds every piece of timed dispatcher work in one
// binary min-heap keyed (at, class, t, seq); the epoch loop (stream.go)
// takes each boundary as the earlier of the next invocation and the
// heap head. The class rank is the canonical order of work due at one
// instant (DESIGN.md "Epoch engine"). Late work (t before the clock)
// is keyed to the clock, so it fires at the next boundary; work pushed
// while a boundary fires is staged until the next boundary is chosen,
// even when it is due at the same instant; moot resilience decisions
// are dropped before they can set a boundary.

// entryClass ranks the kinds of queued work, earliest-firing first.
type entryClass uint8

const (
	classFleet  entryClass = iota // a FleetEvent: churn, autoscaler join, drain deadline
	classClose                    // an open fault window expires
	classOpen                     // a fault window opens
	classResil                    // a timeout, retry launch or hedge launch
	classPacing                   // the re-placement queue releases a batch
	classMemory                   // a fleet memory sample, then the autoscaler
)

// entry is one piece of queued work: a tagged struct whose class says
// which payload fields are live.
type entry struct {
	at    sim.Time // the boundary it fires at: t, or the clock if t had passed
	t     sim.Time // its own time
	seq   uint64
	class entryClass
	resil resilEventKind // classResil
	fleet FleetEventKind // classFleet
	host  int            // classFleet: the target host ID (-1 = busiest)
	win   *openFault     // classClose, classOpen
	fl    *flight        // classResil
	att   *attempt       // classResil: attemptTimeout only
}

func (e *entry) before(o *entry) bool {
	return cmp.Or(cmp.Compare(e.at, o.at), cmp.Compare(e.class, o.class),
		cmp.Compare(e.t, o.t), cmp.Compare(e.seq, o.seq)) < 0
}

// moot reports a resilience decision with nothing left to decide: its
// flight has resolved, or it times out an attempt already withdrawn or
// lost with its host. Mootness reads only state settled at the last
// boundary, so dropping moot entries is invariant to host order.
func (e *entry) moot() bool {
	return e.class == classResil &&
		(e.fl.resolved || (e.resil == attemptTimeout && (e.att.cancelled || e.att.dead)))
}

// boundaryQueue is the heap plus the entries staged during the current
// boundary. It is not container/heap: that boxes every pushed entry in
// an interface, and a resilient run pushes one timeout per attempt.
type boundaryQueue struct {
	heap   []entry
	staged []entry
	seq    uint64
}

// push stages e; it joins the heap at the next merge.
func (q *boundaryQueue) push(e entry) {
	e.at, e.seq = e.t, q.seq
	q.seq++
	q.staged = append(q.staged, e)
}

// merge moves the staged entries into the heap, keying every entry
// whose time has passed to now, so late work fires at the next
// boundary in class order.
func (q *boundaryQueue) merge(now sim.Time) {
	for len(q.heap) > 0 && q.heap[0].at < now {
		q.staged = append(q.staged, q.pop())
	}
	for _, e := range q.staged {
		e.at = max(e.at, now)
		q.insert(e)
	}
	clear(q.staged) // drop stale pointers
	q.staged = q.staged[:0]
}

func (q *boundaryQueue) insert(e entry) {
	q.heap = append(q.heap, e)
	h := q.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *boundaryQueue) pop() entry {
	h := q.heap
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = entry{}
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	q.heap = h
	return e
}

func (q *boundaryQueue) reset() {
	clear(q.heap)
	clear(q.staged)
	q.heap, q.staged, q.seq = q.heap[:0], q.staged[:0], 0
}

// nextBoundary merges the staged work, drops moot resilience heads and
// returns the next boundary: the earlier of the next invocation's time
// t (if ok) and the queue head, unless the head lies past horizon.
func (c *Cluster) nextBoundary(t sim.Time, ok bool, horizon sim.Time) (sim.Time, bool) {
	q := &c.q
	q.merge(c.now)
	for len(q.heap) > 0 && q.heap[0].moot() {
		q.pop()
	}
	if len(q.heap) > 0 && q.heap[0].t <= horizon && (!ok || q.heap[0].at < t) {
		t, ok = q.heap[0].at, true
	}
	return t, ok
}

// fireQueued runs boundary t up to its invocations: finished drains
// retire, due fleet events and fault windows fire, settled attempts
// resolve (so a completion beats a same-instant timeout), then due
// resilience decisions and the pacing tick fire. The fleet must be
// paused at t.
func (c *Cluster) fireQueued(t sim.Time) {
	c.q.merge(c.now)
	c.settleDrains()
	c.fireDue(t, classOpen)
	c.resolveSettled()
	c.fireDue(t, classPacing)
}

// fireDue pops and applies, in key order, every merged entry due at t
// whose class ranks at most last.
func (c *Cluster) fireDue(t sim.Time, last entryClass) {
	for len(c.q.heap) > 0 && c.q.heap[0].at <= t && c.q.heap[0].class <= last {
		e := c.q.pop()
		switch e.class {
		case classFleet:
			c.applyFleetEvent(e.fleet, e.host)
		case classClose:
			c.closeFault(e.win)
		case classOpen:
			c.openFaultWindow(e.win)
		case classResil:
			if e.fl.resolved {
				continue
			}
			switch e.resil {
			case attemptTimeout:
				c.timeoutAttempt(e.fl, e.att)
			case retryLaunch:
				c.launch(e.fl, e.fl.fn, e.fl.onDone)
			case hedgeLaunch:
				c.hedgeAttempt(e.fl)
			}
		case classPacing:
			for budget := c.repace.PerTick; budget > 0 && len(c.repaceQ) > 0; budget-- {
				att := c.repaceQ[0]
				c.repaceQ[0] = nil
				c.repaceQ = c.repaceQ[1:]
				c.redispatch(att)
			}
			if len(c.repaceQ) > 0 {
				c.q.push(entry{t: t.Add(c.repace.Every), class: classPacing})
			}
		case classMemory:
			c.SampleMemory()
			if next := e.t.Add(c.tickEvery); next <= c.tickUntil {
				c.q.push(entry{t: next, class: classMemory})
			}
			c.autoscaleTick()
		}
	}
}
