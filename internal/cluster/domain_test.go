package cluster

import (
	"fmt"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/fault"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// The failure-domain determinism suite: PR 9's extension of the fault
// byte-identity guarantee. Rack-level fault events expand onto whole
// failure domains at epoch boundaries, the blast-radius-aware policies
// read fleet-wide domain state, and displaced work drains through the
// paced re-placement queue — and the run must still be a pure function
// of (seed, config) whatever order the hosts advance in.

// domainTable extends the fault fingerprint with the failure-domain
// outcome, so a divergence in rack expansion or recovery pacing breaks
// byte-identity.
func domainTable(c *Cluster) string {
	return fmt.Sprintf("%s rackev=%d paced=%d", faultTable(c), c.Metrics.RackEvents, c.Metrics.Paced)
}

// domainCluster plays one pressured fleet with a topology, fuzzed
// rack-aware churn and faults, a blast-radius policy, pacing, and the
// full resilience layer, and returns the cluster for inspection.
func domainCluster(seed uint64, order func([]*Node) []*Node) *Cluster {
	const hosts = 4
	dur := 25 * sim.Second
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: hosts, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
		N: 4, KeepAlive: 20 * sim.Second,
		Topology:    &Topology{Racks: 2, Zones: 2},
		PhaseBounds: []sim.Time{sim.Time(dur / 2)},
		Resilience: &ResilienceConfig{
			Timeout: 5 * sim.Second, Hedge: true, HedgeDelay: 3 * sim.Second, Shed: true,
		},
		Repace: &RepaceConfig{Shed: true},
	}, NewPolicy("spread", cost), faas.NewRecycler())
	c.hostOrder = order
	fleetEvs, rackFails := genChurn(seed, churnConfig{dur: dur, events: 4, hosts: hosts, racks: 2})
	faults := fault.GenFaults(seed, fault.Config{
		Duration: dur, Events: 8, Hosts: hosts, Racks: 2,
	})
	faults = append(faults, rackFails...)
	c.Play(fleetStream(seed, 6, dur, 6, 30), fleetFns(), PlayConfig{
		TickEvery: sim.Second, TickUntil: sim.Time(dur),
		DrainUntil: sim.Time(10 * dur),
		Events:     fleetEvs,
		Faults:     faults,
		FaultSeed:  seed,
	})
	return c
}

func domainRun(seed uint64, order func([]*Node) []*Node) (uint64, string) {
	c := domainCluster(seed, order)
	return c.Fired(), domainTable(c)
}

// TestDomainShardInvariance is the PR 9 headline property: fuzzed
// rack-fault plans layered on fuzzed churn, with the spread policy
// reading fleet-wide rack state and the paced re-placement queue
// draining displaced work, byte-identical at every point of the
// host-order grid.
func TestDomainShardInvariance(t *testing.T) {
	rackEvents := 0
	for seed := uint64(1); seed <= 3; seed++ {
		wantFired, wantTable := domainRun(seed, nil)
		if wantFired == 0 {
			t.Fatalf("seed %d: degenerate run", seed)
		}
		for _, o := range hostOrders {
			gotFired, gotTable := domainRun(seed, o.hook())
			if gotFired != wantFired || gotTable != wantTable {
				t.Fatalf("seed %d: %s host order diverges from host-ID order:\n%d %s\n%d %s",
					seed, o.name, gotFired, gotTable, wantFired, wantTable)
			}
		}
		rackEvents += domainCluster(seed, nil).Metrics.RackEvents
	}
	if rackEvents == 0 {
		t.Fatal("no seed expanded a rack-level fault; the invariance is vacuous")
	}
}

// TestDomainNoOpEventsByteIdentical: rack-level events on a fleet with
// no topology, on a dangling rack index, or on a valid rack with no
// live members must leave the run byte-identical to one with no plan
// at all — the domain mirror of the dangling-host contract.
func TestDomainNoOpEventsByteIdentical(t *testing.T) {
	run := func(topo *Topology, faults []fault.Event) (uint64, string) {
		dur := 25 * sim.Second
		cost := costmodel.Default()
		c := New(cost, Config{
			Hosts: 3, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
			N: 4, KeepAlive: 20 * sim.Second,
			Topology: topo,
		}, NewPolicy("reclaim-aware", cost), faas.NewRecycler())
		c.Play(fleetStream(4, 6, dur, 6, 30), fleetFns(), PlayConfig{
			TickEvery: sim.Second, TickUntil: sim.Time(dur),
			DrainUntil: sim.Time(10 * dur),
			Faults:     faults, FaultSeed: 4,
		})
		return c.Fired(), domainTable(c)
	}
	wantFired, wantTable := run(nil, nil)
	at := sim.Time(2 * sim.Second)
	cases := map[string]struct {
		topo   *Topology
		faults []fault.Event
	}{
		// No topology: every domain event is invalid by definition.
		"no-topology": {nil, []fault.Event{
			{T: at, Kind: fault.RackFail, Host: 0, Mag: 1},
			{T: at, Dur: 5 * sim.Second, Kind: fault.RackDegrade, Host: 1, Mag: 8},
		}},
		// Dangling rack indices (negative, past the topology).
		"dangling-rack": {&Topology{Racks: 2, Zones: 2}, []fault.Event{
			{T: at, Kind: fault.RackFail, Host: 5, Mag: 1},
			{T: at, Dur: 5 * sim.Second, Kind: fault.RackPartition, Host: -1},
		}},
		// Valid racks that no live host maps to (3 hosts, 8 racks: racks
		// 3..7 are empty).
		"empty-rack": {&Topology{Racks: 8, Zones: 2}, []fault.Event{
			{T: at, Kind: fault.RackFail, Host: 5, Mag: 1},
			{T: at, Dur: 5 * sim.Second, Kind: fault.RackDegrade, Host: 7, Mag: 8},
		}},
	}
	for name, tc := range cases {
		gotFired, gotTable := run(tc.topo, tc.faults)
		if gotFired != wantFired || gotTable != wantTable {
			t.Fatalf("%s diverges from no plan:\n%d %s\n%d %s",
				name, gotFired, gotTable, wantFired, wantTable)
		}
	}
}

// TestRackFailWithDrainingMember: a rack fails while one of its hosts
// is already draining. Both members must die, the drain must not
// resurrect anything, and every in-flight invocation must complete
// exactly once on the survivors.
func TestRackFailWithDrainingMember(t *testing.T) {
	long := workload.LongHaul()
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: 4, Backend: faas.Squeezy, N: 1, KeepAlive: 60 * sim.Second,
		Topology: &Topology{Racks: 2, Zones: 2},
	}, NewPolicy("round-robin", cost), faas.NewRecycler())
	// One long-running flight per host (N=1 forces a fresh placement
	// each time), each counting its completions exactly once.
	var done [4]int
	for i := range done {
		i := i
		c.Invoke(long, func(res faas.Result) { done[i]++ })
	}
	// Rack 1 = hosts {1, 3}. Host 1 starts draining, then its whole
	// rack fails out from under the drain.
	c.startDrain(c.Nodes[1])
	c.ScheduleFaults([]fault.Event{
		{T: c.Now(), Kind: fault.RackFail, Host: 1, Mag: 1},
	}, 7)
	c.fireQueued(c.Now())
	if c.LiveHosts() != 2 || c.Metrics.HostFails != 2 {
		t.Fatalf("live=%d fails=%d after rack-fail, want 2 live and 2 fails", c.LiveHosts(), c.Metrics.HostFails)
	}
	if c.Metrics.RackEvents != 1 {
		t.Fatalf("RackEvents = %d, want 1", c.Metrics.RackEvents)
	}
	if c.Metrics.Replaced != 2 {
		t.Fatalf("Replaced = %d, want the two displaced flights", c.Metrics.Replaced)
	}
	stepBoundaries(c, sim.Time(600*sim.Second))
	c.finishResil()
	for i, d := range done {
		if got := done[i]; got != 1 {
			t.Fatalf("flight %d completed %d times, want exactly once (%v)", i, got, d)
		}
	}
}

// TestRackFailLosesWarmPool: the failed rack holds a function's entire
// warm pool. The warm loss must be counted, the in-flight warm
// invocation must be re-placed and complete exactly once, and the next
// invocation must cold-start on a survivor.
func TestRackFailLosesWarmPool(t *testing.T) {
	fn := workload.ByName("HTML")
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: 4, Backend: faas.Squeezy, N: 4, KeepAlive: 60 * sim.Second,
		Topology: &Topology{Racks: 2, Zones: 2},
	}, NewPolicy("round-robin", cost), faas.NewRecycler())
	// Warm up: two completed invocations leave fn's entire warm pool —
	// two idle instances — on host 0 in rack 0 (the second concurrent
	// invocation scales up on the host already running fn's VM).
	var warm int
	c.Invoke(fn, func(res faas.Result) { warm++ })
	c.Invoke(fn, func(res faas.Result) { warm++ })
	drainFor(c, 30*sim.Second)
	c.resolveSettled()
	if warm != 2 {
		t.Fatal("warm-up invocations did not complete")
	}
	if n := c.warmNode(fn, nil); n == nil || n.ID != 0 {
		t.Fatalf("warm pool not on host 0 (got %v)", n)
	}
	// The next invocation routes warm onto host 0, leaving one idle
	// instance beside it; while it is in flight, rack 0 — hosts
	// {0, 2} — fails, taking both the busy and the idle instance.
	var done int
	c.Invoke(fn, func(res faas.Result) {
		if !res.Failed && !res.Dropped {
			done++
		}
	})
	c.ScheduleFaults([]fault.Event{
		{T: c.Now(), Kind: fault.RackFail, Host: 0, Mag: 1},
	}, 7)
	c.fireQueued(c.Now())
	if c.LiveHosts() != 2 {
		t.Fatalf("live = %d after rack-fail, want 2", c.LiveHosts())
	}
	if c.Metrics.WarmLost < 1 {
		t.Fatalf("WarmLost = %d, want the lost warm pool counted", c.Metrics.WarmLost)
	}
	if n := c.warmNode(fn, nil); n != nil {
		t.Fatalf("warm pool survived on host %d, want none", n.ID)
	}
	stepBoundaries(c, sim.Time(600*sim.Second))
	c.finishResil()
	if got := done; got != 1 {
		t.Fatalf("displaced warm flight completed %d times, want exactly once", got)
	}
	// The re-placed flight had no warm pool left: it must have
	// cold-started on a surviving rack-1 host.
	if c.Nodes[1].VM(fn.Name) == nil && c.Nodes[3].VM(fn.Name) == nil {
		t.Fatal("re-placed flight did not land on the surviving rack")
	}
}

// TestRepaceDrainsAcrossJoin: displaced flights sit in the paced
// re-placement queue while a new host joins; the queue must keep its
// cadence, dispatch every entry exactly once, and be empty at the end.
func TestRepaceDrainsAcrossJoin(t *testing.T) {
	long := workload.LongHaul()
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: 2, Backend: faas.Squeezy, N: 1, KeepAlive: 60 * sim.Second,
		Topology: &Topology{Racks: 2, Zones: 2},
		Repace:   &RepaceConfig{PerTick: 1, Every: 250 * sim.Millisecond},
	}, NewPolicy("round-robin", cost), faas.NewRecycler())
	var done [3]int
	for i := range done {
		i := i
		c.Invoke(long, func(res faas.Result) {
			if !res.Failed && !res.Dropped {
				done[i]++
			}
		})
	}
	// Host 0 carries two of the three flights (N=1: the third pick
	// queued on it). Fail it: both flights enter the pacing queue.
	c.failHost(c.Nodes[0])
	if c.Metrics.Paced != 2 {
		t.Fatalf("Paced = %d, want both displaced flights queued", c.Metrics.Paced)
	}
	if c.Metrics.Replaced != 0 {
		t.Fatalf("Replaced = %d before any pacing tick, want 0", c.Metrics.Replaced)
	}
	if len(c.repaceQ) != 2 {
		t.Fatalf("queue depth = %d, want 2", len(c.repaceQ))
	}
	// A fresh host joins while the queue drains.
	c.joinHost()
	if c.LiveHosts() != 2 {
		t.Fatalf("live = %d after join, want 2", c.LiveHosts())
	}
	stepBoundaries(c, sim.Time(600*sim.Second))
	c.finishResil()
	if c.Metrics.Replaced != 2 {
		t.Fatalf("Replaced = %d after draining, want 2", c.Metrics.Replaced)
	}
	if len(c.repaceQ) != 0 {
		t.Fatalf("queue depth = %d after draining, want 0", len(c.repaceQ))
	}
	for i := range done {
		if got := done[i]; got != 1 {
			t.Fatalf("flight %d completed %d times, want exactly once", i, got)
		}
	}
}

// TestSpreadPicksUnderloadedRack: with a function's instances piled on
// one rack, spread must place the next instance in the other rack —
// over the fleet-wide view, not just the candidate ordering.
func TestSpreadPicksUnderloadedRack(t *testing.T) {
	fn := workload.ByName("HTML")
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: 4, Backend: faas.Squeezy, N: 4, KeepAlive: 60 * sim.Second,
		Topology: &Topology{Racks: 2, Zones: 2},
	}, NewPolicy("round-robin", cost), faas.NewRecycler())
	// Pile fn onto rack 0: hosts {0, 2}.
	for _, id := range []int{0, 2} {
		fv := c.vmOn(c.Nodes[id], fn)
		fv.Invoke(fn, nil)
	}
	sp := &Spread{}
	sp.bind(c)
	if got := sp.Pick(c.active, fn); got.Rack != 1 {
		t.Fatalf("spread picked host %d in rack %d, want rack 1", got.ID, got.Rack)
	}
	// The fleet-wide view matters: even when only rack-0 candidates and
	// one rack-1 candidate are offered, the rack-1 host must win.
	cands := []*Node{c.Nodes[0], c.Nodes[2], c.Nodes[3]}
	if got := sp.Pick(cands, fn); got.ID != 3 {
		t.Fatalf("spread picked host %d, want the rack-1 candidate (3)", got.ID)
	}
	// Unbound (unit-style) it degrades to scoring over the candidates
	// alone and must still return one of them.
	bare := &Spread{}
	if got := bare.Pick(cands, fn); got.Rack != 1 {
		t.Fatalf("unbound spread picked rack %d, want 1", got.Rack)
	}
}

// TestZoneHeadroomPicksRoomiestZone: with heterogeneous host sizes
// concentrating free memory in one zone, zone-headroom must place
// there, preferring the roomiest host inside it.
func TestZoneHeadroomPicksRoomiestZone(t *testing.T) {
	fn := workload.ByName("HTML")
	cost := costmodel.Default()
	// Racks 2, zones 2: host i is rack i%2, zone = rack. The MemBytes
	// cycle gives rack-0 hosts 8 GiB and rack-1 hosts 32 GiB, so zone 1
	// holds most of the fleet's headroom.
	c := New(cost, Config{
		Hosts: 4, Backend: faas.Squeezy, N: 4, KeepAlive: 60 * sim.Second,
		HostMemBytes: 16 * units.GiB,
		Topology: &Topology{
			Racks: 2, Zones: 2,
			MemBytes: []int64{8 * units.GiB, 32 * units.GiB},
		},
	}, NewPolicy("round-robin", cost), faas.NewRecycler())
	zh := &ZoneHeadroom{}
	zh.bind(c)
	got := zh.Pick(c.active, fn)
	if got.Zone != 1 {
		t.Fatalf("zone-headroom picked host %d in zone %d, want zone 1", got.ID, got.Zone)
	}
	if got.ID != 1 {
		t.Fatalf("zone-headroom picked host %d, want the first rack-1 host (1)", got.ID)
	}
}

// TestTopologyAccessors: the nil-safe topology helpers and the
// round-robin rack/zone assignment New derives from them.
func TestTopologyAccessors(t *testing.T) {
	var nilTopo *Topology
	if nilTopo.RackOf(3) != 0 || nilTopo.ZoneOfRack(2) != 0 || nilTopo.ValidRack(0) {
		t.Fatal("nil topology must be flat and reject every rack")
	}
	if nilTopo.HostMem(1, 42) != 42 {
		t.Fatal("nil topology must fall through to the default host size")
	}
	topo := &Topology{Racks: 4, Zones: 2}
	for id, wantRack := range []int{0, 1, 2, 3, 0, 1} {
		if got := topo.RackOf(id); got != wantRack {
			t.Fatalf("RackOf(%d) = %d, want %d", id, got, wantRack)
		}
	}
	for rack, wantZone := range []int{0, 0, 1, 1} {
		if got := topo.ZoneOfRack(rack); got != wantZone {
			t.Fatalf("ZoneOfRack(%d) = %d, want %d", rack, got, wantZone)
		}
	}
	if topo.ValidRack(-1) || topo.ValidRack(4) || !topo.ValidRack(3) {
		t.Fatal("ValidRack bounds are wrong")
	}
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: 6, Backend: faas.Squeezy, N: 4, Topology: topo,
	}, NewPolicy("round-robin", cost), faas.NewRecycler())
	for _, n := range c.Nodes {
		if n.Rack != topo.RackOf(n.ID) || n.Zone != topo.ZoneOfRack(n.Rack) {
			t.Fatalf("host %d assigned rack %d zone %d, want %d/%d",
				n.ID, n.Rack, n.Zone, topo.RackOf(n.ID), topo.ZoneOfRack(topo.RackOf(n.ID)))
		}
	}
}

// TestHeterogeneousCapacity: per-host sizes from the topology reach
// the host memory models, the fleet capacity sum, and survive Reset —
// the autoscaler and shed thresholds read real capacity, not hosts
// times a uniform size.
func TestHeterogeneousCapacity(t *testing.T) {
	cost := costmodel.Default()
	cfg := Config{
		Hosts: 3, Backend: faas.Squeezy, N: 4,
		HostMemBytes: 64 * units.GiB,
		Topology: &Topology{
			Racks:    1,
			MemBytes: []int64{16 * units.GiB, 32 * units.GiB},
		},
	}
	c := New(cost, cfg, NewPolicy("round-robin", cost), faas.NewRecycler())
	check := func(stage string) {
		want := []int64{16 * units.GiB, 32 * units.GiB, 16 * units.GiB}
		var sum int64
		for i, n := range c.Nodes {
			if got := n.Host.CapacityPages(); got != units.BytesToPages(want[i]) {
				t.Fatalf("%s: host %d capacity %d pages, want %d",
					stage, i, got, units.BytesToPages(want[i]))
			}
			sum += units.BytesToPages(want[i])
		}
		if got := c.activeCapacityPages(); got != sum {
			t.Fatalf("%s: activeCapacityPages = %d, want %d", stage, got, sum)
		}
	}
	check("fresh")
	c.Reset(cost, cfg, NewPolicy("round-robin", cost))
	check("reset")
	// A fleet containing one unlimited host has no meaningful capacity
	// sum: the autoscaler and shed thresholds must see 0 (disabled).
	unl := cfg
	unl.HostMemBytes = 0
	unl.Topology = &Topology{Racks: 1, MemBytes: []int64{16 * units.GiB, 0}}
	c.Reset(cost, unl, NewPolicy("round-robin", cost))
	if got := c.activeCapacityPages(); got != 0 {
		t.Fatalf("unlimited host: activeCapacityPages = %d, want 0", got)
	}
}
