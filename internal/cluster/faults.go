package cluster

import (
	"squeezy/internal/fault"
	"squeezy/internal/obs"
)

// Fault-plan execution: windows open and close at dispatcher epoch
// boundaries, with every host paused — the same serialization point
// that makes routing and churn deterministic makes fault injection
// deterministic. Between boundaries each host consults only its own
// injector (internal/fault), whose probabilistic decisions come from a
// counter-mode stream seeded by (plan seed, host ID) — so nothing an
// injected fault does depends on the order hosts advance in.
//
// Window semantics follow fault.Event: Host -1 targets every host live
// at open time (the applied set is recorded, so the close targets
// exactly those hosts and a mid-window joiner is unaffected); dangling
// IDs are no-ops. Opens and closes wait in the dispatcher's boundary
// queue (boundary.go); at one instant closes fire before opens, and a
// close queued by an open waits for the next boundary.

// openFault is one plan window and, once open, the hosts it was
// applied to. Its open and close entries in the boundary queue share
// it.
type openFault struct {
	ev    fault.Event
	hosts []*Node
}

// ScheduleFaults arms a fault plan for the next Play: every host gets
// an injector seeded from (seed, host ID), wired into its runtime so
// the VMs it boots see injected boot failures and crashes and its
// reclaim backends see stalls and partial completions. Call before the
// run places any VM (Play does, via PlayConfig.Faults); an empty plan
// is a no-op and leaves the fleet byte-identical to a fault-free run.
func (c *Cluster) ScheduleFaults(events []fault.Event, seed uint64) {
	if len(events) == 0 {
		return
	}
	c.faultSeed = seed
	if !c.faultsOn {
		c.faultsOn = true
		for _, n := range c.live {
			c.armInjector(n)
		}
	}
	wins := make([]openFault, len(events))
	for i, ev := range events {
		wins[i].ev = ev
		c.q.push(entry{t: ev.T, class: classOpen, win: &wins[i]})
	}
}

// armInjector gives the host its decision stream. The injector seed
// depends only on the plan seed and the host ID, so a host's stream is
// identical no matter when it joined or in what order it advances.
func (c *Cluster) armInjector(n *Node) {
	n.inj = fault.NewInjector(n.ID, c.faultSeed)
	n.RT.Faults = n.inj
}

// openFaultWindow resolves the window's target hosts, opens it on
// each, records the applied set so the close mirrors it, and queues
// the close. The fleet must be paused at the boundary.
func (c *Cluster) openFaultWindow(w *openFault) {
	ev := w.ev
	if ev.Kind.Domain() {
		c.openDomainFault(w)
		return
	}
	var hosts []*Node
	switch {
	case ev.Host < 0:
		hosts = append(hosts, c.live...)
	case ev.Host < len(c.Nodes):
		if n := c.Nodes[ev.Host]; n.state != nodeDead {
			hosts = append(hosts, n)
		}
	}
	if len(hosts) == 0 {
		return // dangling or dead target: fuzzed plans must be safe no-ops
	}
	for _, n := range hosts {
		n.inj.Open(ev)
		if ev.Kind == fault.Straggler {
			c.applyStraggler(n)
		}
	}
	c.queueClose(w, hosts)
	if c.fleetObs != nil {
		c.fleetObs.Count("faults/windows", 1)
		c.fleetObs.Instant("fault-open: "+ev.Kind.String(), obs.CatFault,
			obs.I("host", int64(ev.Host)), obs.F("mag", ev.Mag),
			obs.I("targets", int64(len(hosts))))
	}
}

// openDomainFault expands one rack-level event onto the rack's live
// members at the boundary. The expansion is a pure function of the
// fleet state every worker agrees on at the boundary (live membership
// in host-ID order) plus, for partial RackFail, the counter-mode
// fault.DomainDraw — so losing rack 2 of 4 is one plan entry that
// plays out identically whatever order the hosts advance in. A fleet with
// no topology, a dangling rack index, or a rack with no live members
// makes the event a deterministic no-op — the domain mirror of the
// dangling-host contract.
func (c *Cluster) openDomainFault(w *openFault) {
	ev := w.ev
	topo := c.Cfg.Topology
	if !topo.ValidRack(ev.Host) {
		return
	}
	var hosts []*Node
	for _, n := range c.live {
		if n.Rack == ev.Host {
			hosts = append(hosts, n)
		}
	}
	if len(hosts) == 0 {
		return
	}
	c.Metrics.RackEvents++
	if c.fleetObs != nil {
		c.fleetObs.Count("faults/rack_events", 1)
		c.fleetObs.Instant("fault-open: "+ev.Kind.String(), obs.CatFault,
			obs.I("rack", int64(ev.Host)), obs.I("zone", int64(topo.ZoneOfRack(ev.Host))),
			obs.F("mag", ev.Mag), obs.I("targets", int64(len(hosts))))
	}
	switch ev.Kind {
	case fault.RackFail:
		for _, n := range hosts {
			if ev.Mag < 1 && fault.DomainDraw(c.faultSeed, ev, n.ID) >= ev.Mag {
				continue
			}
			if !c.canRemove(n) {
				continue
			}
			c.failHost(n)
		}
	case fault.RackDegrade:
		for _, n := range hosts {
			n.inj.Open(rackStraggler(ev, n))
			c.applyStraggler(n)
		}
		c.queueClose(w, hosts)
	case fault.RackPartition:
		for _, n := range hosts {
			c.partitionHost(n)
		}
		c.queueClose(w, hosts)
	}
}

// queueClose records the hosts an opened window applies to and queues
// its close at T+Dur.
func (c *Cluster) queueClose(w *openFault, hosts []*Node) {
	w.hosts = hosts
	c.q.push(entry{t: w.ev.T.Add(w.ev.Dur), class: classClose, win: w})
}

// rackStraggler synthesizes the per-host window a RackDegrade expands
// to: a Straggler of the same magnitude keyed to the host, so the
// close can re-synthesize the identical value and match it in the
// injector's active list.
func rackStraggler(ev fault.Event, n *Node) fault.Event {
	return fault.Event{T: ev.T, Dur: ev.Dur, Kind: fault.Straggler, Host: n.ID, Mag: ev.Mag}
}

// partitionHost isolates the host from the dispatcher: it leaves the
// placement-eligible set but keeps advancing, so in-flight work
// completes normally — the control plane just routes around the rack.
func (c *Cluster) partitionHost(n *Node) {
	n.partitioned++
	if n.partitioned == 1 && n.state == nodeActive {
		c.active = removeNode(c.active, n)
	}
}

// unpartitionHost heals one partition window. The host rejoins the
// placement set in host-ID order only when no other window still
// covers it and it is still active (a host drained or killed
// mid-partition stays out).
func (c *Cluster) unpartitionHost(n *Node) {
	if n.partitioned > 0 {
		n.partitioned--
	}
	if n.partitioned == 0 && n.state == nodeActive {
		c.active = insertNode(c.active, n)
	}
}

// insertNode inserts n into the ID-ordered slice — the inverse of
// removeNode, for partition heals.
func insertNode(nodes []*Node, n *Node) []*Node {
	i := len(nodes)
	for i > 0 && nodes[i-1].ID > n.ID {
		i--
	}
	nodes = append(nodes, nil)
	copy(nodes[i+1:], nodes[i:])
	nodes[i] = n
	return nodes
}

// closeFault closes the window on exactly the hosts it opened on;
// hosts that died mid-window are skipped (their injectors are frozen
// with their schedulers).
func (c *Cluster) closeFault(of *openFault) {
	for _, n := range of.hosts {
		if n.state == nodeDead {
			continue
		}
		switch of.ev.Kind {
		case fault.RackDegrade:
			n.inj.Close(rackStraggler(of.ev, n))
			c.applyStraggler(n)
		case fault.RackPartition:
			c.unpartitionHost(n)
		default:
			n.inj.Close(of.ev)
			if of.ev.Kind == fault.Straggler {
				c.applyStraggler(n)
			}
		}
	}
	if c.fleetObs != nil {
		c.fleetObs.Instant("fault-close: "+of.ev.Kind.String(), obs.CatFault,
			obs.I("host", int64(of.ev.Host)))
	}
}

// applyStraggler swaps the host onto a cost model scaled by its
// current straggler factor (back to the shared model when the factor
// returns to 1). Costs are read at operation time, so in-flight work
// finishes at the new speed; the dispatcher's policy costs stay
// unscaled — the control plane doesn't know the host got slow, which
// is exactly the blindness resilience has to absorb.
func (c *Cluster) applyStraggler(n *Node) {
	cost := c.Cost
	if scale := n.inj.StragglerScale(); scale > 1 {
		cost = c.Cost.Scaled(scale)
		if c.fleetObs != nil {
			c.fleetObs.Instant("straggler", obs.CatFault,
				obs.I("host", int64(n.ID)), obs.F("scale", scale))
		}
	}
	n.RT.Cost = cost
	for _, fv := range n.RT.VMs {
		fv.VM.Cost = cost
		fv.K.Cost = cost
	}
}
