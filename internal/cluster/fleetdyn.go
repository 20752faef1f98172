package cluster

import (
	"squeezy/internal/costmodel"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
)

// Fleet dynamics: hosts join, fail, and drain while a trace plays.
//
// Every fleet-shape change happens at a dispatcher epoch boundary,
// with all hosts paused — the same serialization point that makes
// routing deterministic makes churn deterministic. Scheduled events,
// drain deadlines and autoscaler joins wait in the boundary queue
// (boundary.go); at a boundary finished drains retire first, then due
// fleet events fire in queue order, ahead of every other kind of
// queued work, the invocations, the memory sample and the autoscaler.
// Nothing about a shape change depends on the order hosts advance in
// or on the worker pool:
//
//   - Failure: the host's warm pool is lost, its runtime is released
//     into its recycler (kernels, vmm.VMs, shells harvested), and the
//     flights of its in-flight attempts re-place through the normal
//     dispatcher tiers in launch order. The dead host's scheduler never
//     advances again, so the lost attempts' completions never fire —
//     each invocation resolves exactly once.
//   - Drain: the host stops taking placements but keeps advancing
//     until its in-flight work completes or the drain deadline
//     (costmodel.ReclaimDrainTimeout) expires, at which point the
//     stragglers re-place exactly once and the host retires.
//   - Join: the new host gets the next monotonic host ID — IDs are
//     never reused — and its private scheduler jumps to the fleet
//     clock. Host identity (VM names, per-VM RNG streams) derives only
//     from the ID and join order, so a joined host's sub-simulation is
//     reproducible whatever order the hosts advance in.
//
// Epoch advances and the final drain walk the live hosts inline, so a
// membership change needs no repartitioning.

// FleetEventKind classifies one fleet-shape change.
type FleetEventKind int

const (
	// HostJoin adds a fresh host to the fleet (Host is ignored).
	HostJoin FleetEventKind = iota
	// HostFail kills a host abruptly: its warm pool is destroyed and
	// its in-flight invocations re-place immediately.
	HostFail
	// HostDrain removes a host gracefully: no new placements; running
	// work finishes, or re-places when the drain deadline expires.
	HostDrain
	// drainDeadline is the internal expiry of a started drain.
	drainDeadline
)

// FleetEvent is one scheduled fleet-shape change on simulated time.
type FleetEvent struct {
	T    sim.Time
	Kind FleetEventKind
	// Host targets a host ID for HostFail/HostDrain; -1 picks the
	// busiest active host at event time (the worst-case victim).
	// Targeting a host that is already gone — or never existed — is a
	// no-op, as is removing the last active host.
	Host int
}

// AutoscaleConfig drives host count from aggregate memory pressure
// (committed / capacity over the active hosts), evaluated at every
// memory-sample tick — so autoscaling requires PlayConfig.TickEvery.
type AutoscaleConfig struct {
	// High and Low are the scale-up and scale-down pressure thresholds.
	High, Low float64
	// MinHosts and MaxHosts bound the active host count (defaults: 1
	// and unbounded).
	MinHosts, MaxHosts int
	// Cooldown is the minimum time between autoscaler actions.
	Cooldown sim.Duration
	// JoinDelay models host provisioning: a scale-up decided at T adds
	// the host at T+JoinDelay.
	JoinDelay sim.Duration
}

// ScheduleFleetEvents queues churn events for the next Play. Events
// need not be sorted; same-time events fire in the given order.
func (c *Cluster) ScheduleFleetEvents(events []FleetEvent) {
	for _, ev := range events {
		if ev.Kind == HostJoin {
			c.joinsQueued++
		}
		c.q.push(entry{t: ev.T, class: classFleet, fleet: ev.Kind, host: ev.Host})
	}
}

// ActiveHosts returns the number of placement-eligible hosts.
func (c *Cluster) ActiveHosts() int { return len(c.active) }

// LiveHosts returns the number of hosts still advancing (active +
// draining).
func (c *Cluster) LiveHosts() int { return len(c.live) }

// applyFleetEvent fires one due fleet event. The fleet must be paused
// at the boundary.
func (c *Cluster) applyFleetEvent(kind FleetEventKind, host int) {
	switch kind {
	case HostJoin:
		c.joinsQueued--
		c.joinHost()
	case HostFail:
		if n := c.victim(host, true); n != nil {
			c.failHost(n)
		}
	case HostDrain:
		if n := c.victim(host, false); n != nil {
			c.startDrain(n)
		}
	case drainDeadline:
		n := c.Nodes[host]
		if n.state == nodeDraining {
			c.expireDrain(n)
		}
	}
}

// victim resolves an event's target host. -1 picks the busiest active
// host (most live instances, tie to the lowest ID). A dangling ID, a
// host already dead (or already draining, for a drain), or a removal
// that would leave no active host all resolve to nil — churn schedules
// are fuzzed, so impossible events must be safe no-ops.
func (c *Cluster) victim(id int, allowDraining bool) *Node {
	var n *Node
	switch {
	case id == -1:
		best := -1
		for _, cand := range c.active {
			if live := cand.LiveInstances(); live > best {
				n, best = cand, live
			}
		}
	case id >= 0 && id < len(c.Nodes):
		n = c.Nodes[id]
	}
	if n == nil || n.state == nodeDead {
		return nil
	}
	if n.state == nodeDraining && !allowDraining {
		return nil
	}
	if !c.canRemove(n) {
		return nil
	}
	return n
}

// canRemove reports whether removing n leaves the fleet serviceable:
// never remove the last placement-eligible host, and never the last
// live one (a partitioned host is live but not placement-eligible, so
// both guards are needed once partitions exist). Shared by victim and
// the rack-level expansion (faults.go), so a rack holding the whole
// fleet degrades to a partial loss instead of an empty fleet.
func (c *Cluster) canRemove(n *Node) bool {
	if n.state == nodeActive && n.partitioned == 0 && len(c.active) <= 1 {
		return false
	}
	return len(c.live) > 1
}

// joinHost adds a fresh host at the fleet clock. The host ID is the
// next monotonic index — dead hosts keep their IDs — and the host's
// private scheduler jumps to now, so its first event lands on the
// fleet timeline.
func (c *Cluster) joinHost() *Node {
	n := c.newNode(len(c.Nodes))
	n.Sched.Jump(c.now)
	c.Nodes = append(c.Nodes, n)
	c.active = append(c.active, n)
	c.live = append(c.live, n)
	c.Metrics.HostJoins++
	c.attachNodeObs(n)
	if c.faultsOn {
		c.armInjector(n) // before the host can boot a VM
	}
	if c.fleetObs != nil {
		c.fleetObs.Count("fleet/joins", 1)
		c.fleetObs.Instant("host-join", obs.CatFleet,
			obs.I("host", int64(n.ID)), obs.I("rack", int64(n.Rack)),
			obs.I("active", int64(len(c.active))))
	}
	return n
}

// failHost kills the host abruptly: warm pool destroyed, runtime
// released into the host's recycler, in-flight attempts re-placed
// through the dispatcher in launch order, exactly once each.
func (c *Cluster) failHost(n *Node) {
	c.Metrics.HostFails++
	warmLost := n.RT.IdleInstances()
	c.Metrics.WarmLost += warmLost
	if c.fleetObs != nil {
		c.fleetObs.Count("fleet/fails", 1)
		c.fleetObs.Count("warm_lost", int64(warmLost))
		c.fleetObs.Instant("host-fail", obs.CatFleet,
			obs.I("host", int64(n.ID)), obs.I("rack", int64(n.Rack)),
			obs.I("warm_lost", int64(warmLost)),
			obs.I("inflight", int64(len(n.attempts))))
	}
	c.retire(n)
	c.replaceAttempts(n)
}

// startDrain stops placements on the host and arms the drain deadline.
// The host keeps advancing with the fleet until its in-flight work
// completes (settleDrains) or the deadline fires (expireDrain).
func (c *Cluster) startDrain(n *Node) {
	c.Metrics.HostDrains++
	if c.fleetObs != nil {
		c.fleetObs.Count("fleet/drains", 1)
		c.fleetObs.Instant("host-drain", obs.CatFleet,
			obs.I("host", int64(n.ID)), obs.I("inflight", int64(len(n.attempts))))
	}
	n.state = nodeDraining
	c.active = removeNode(c.active, n)
	c.q.push(entry{
		t: c.now.Add(costmodel.ReclaimDrainTimeout), class: classFleet, fleet: drainDeadline, host: n.ID,
	})
}

// expireDrain fires when a draining host's grace period ends with work
// still in flight: the stragglers re-place exactly once — their doomed
// completions can never fire, the retired host's scheduler is frozen —
// and the host retires.
func (c *Cluster) expireDrain(n *Node) {
	if c.fleetObs != nil {
		c.fleetObs.Instant("drain-deadline", obs.CatFleet,
			obs.I("host", int64(n.ID)), obs.I("stragglers", int64(len(n.attempts))))
	}
	c.retire(n)
	c.replaceAttempts(n)
}

// settleDrains retires draining hosts whose in-flight work has
// completed. Called at every epoch boundary, before fleet events and
// routing, so a finished drain stops advancing promptly.
func (c *Cluster) settleDrains() {
	var done []*Node // collected first: retire edits c.live in place
	for _, n := range c.live {
		if n.state == nodeDraining && len(n.attempts) == 0 {
			done = append(done, n)
		}
	}
	for _, n := range done {
		c.retire(n)
	}
}

// retire removes the host from the fleet for good: its runtime
// releases every VM into the host's recycler (guest kernels, vmm.VMs,
// agent shells — the same harvest a finished run performs), and its
// scheduler never advances again, freezing any event still pending on
// it.
func (c *Cluster) retire(n *Node) {
	n.state = nodeDead
	c.active = removeNode(c.active, n)
	c.live = removeNode(c.live, n)
	n.RT.Release()
}

// replaceAttempts re-places the flights of a retired host's in-flight
// attempts in launch order, exactly once each — immediately, or
// through the pacing queue when recovery-storm control is on
// (repace.go). A flight keeps its arrival time, so its eventual
// latency pays for the lost work; a flight a surviving racer already
// won is left alone. Attempts that settled before the host died keep
// their results and resolve at the next boundary from the dead host's
// settled list. Re-placement runs after retirement: the dispatcher no
// longer sees the dead host.
func (c *Cluster) replaceAttempts(n *Node) {
	atts := n.attempts
	n.attempts = nil // ownership moves; the dead host drops its list
	for _, att := range atts {
		att.dead = true
		fl := att.fl
		fl.removeOutstanding(att)
		if fl.resolved {
			continue
		}
		fl.replaced = true
		if c.repace != nil {
			c.queueRepace(att)
			continue
		}
		c.redispatch(att)
	}
}

// autoscaleTick evaluates the autoscaler against aggregate memory
// pressure at a sample tick. Scale-ups are provisioning-delayed joins;
// scale-downs drain the idlest active host (fewest live instances, tie
// to the highest ID — the newest host retires first).
func (c *Cluster) autoscaleTick() {
	as := c.autoscale
	if as == nil {
		return
	}
	if c.scaled && c.now.Sub(c.lastScale) < as.Cooldown {
		return
	}
	capacity := c.activeCapacityPages()
	if capacity <= 0 {
		return // unlimited or empty fleet: pressure is undefined
	}
	var committed int64
	for _, n := range c.active {
		committed += n.Host.CommittedPages()
	}
	pressure := float64(committed) / float64(capacity)
	if c.fleetObs != nil {
		c.fleetObs.Gauge("autoscale/pressure", obs.CatFleet, pressure)
	}

	minHosts, maxHosts := as.MinHosts, as.MaxHosts
	if minHosts < 1 {
		minHosts = 1
	}
	if maxHosts <= 0 {
		maxHosts = int(^uint(0) >> 1)
	}
	switch {
	case pressure >= as.High && len(c.active)+c.joinsQueued < maxHosts:
		// Joins already queued count against MaxHosts, so a sustained
		// pressure spike doesn't over-provision while provisioning
		// delay runs.
		c.joinsQueued++
		c.q.push(entry{t: c.now.Add(as.JoinDelay), class: classFleet, fleet: HostJoin, host: -1})
		c.lastScale, c.scaled = c.now, true
		if c.fleetObs != nil {
			c.fleetObs.Count("autoscale/up", 1)
			c.fleetObs.Instant("autoscale/up", obs.CatFleet,
				obs.F("pressure", pressure), obs.I("active", int64(len(c.active))))
		}
	case pressure <= as.Low && len(c.active) > minHosts:
		if n := c.idlestActive(); n != nil {
			c.startDrain(n)
			c.lastScale, c.scaled = c.now, true
			if c.fleetObs != nil {
				c.fleetObs.Count("autoscale/down", 1)
				c.fleetObs.Instant("autoscale/down", obs.CatFleet,
					obs.F("pressure", pressure), obs.I("host", int64(n.ID)))
			}
		}
	}
}

// idlestActive returns the scale-down victim: fewest live instances,
// tie to the highest ID.
func (c *Cluster) idlestActive() *Node {
	var best *Node
	bestLive := 0
	for _, n := range c.active {
		if live := n.LiveInstances(); best == nil || live <= bestLive {
			best, bestLive = n, live
		}
	}
	return best
}

// removeNode deletes n from the slice preserving order. The backing
// array is rewritten in place, so callers must not hold a sub-slice
// of the membership across a removal; none does — removals happen
// only at epoch boundaries, never while hosts advance or drain.
func removeNode(nodes []*Node, n *Node) []*Node {
	for i, x := range nodes {
		if x == n {
			return append(nodes[:i], nodes[i+1:]...)
		}
	}
	return nodes
}

type nodeState uint8

const (
	nodeActive nodeState = iota
	nodeDraining
	nodeDead
)
