package cluster

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/fault"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// The churn determinism suite: the epoch engine's byte-identity
// guarantee — tables invariant to the order hosts advance in — tested
// against dynamic fleets. Hosts join, fail, and drain mid-trace from fuzzed schedules,
// and every run must still be a pure function of (seed, config).

// churnConfig parameterizes genChurn.
type churnConfig struct {
	// dur bounds event times: events land in (0, dur).
	dur sim.Duration
	// events is the number of churn events to draw.
	events int
	// hosts is the fleet's initial host count; targeted events pick IDs
	// in [0, 2*hosts) so some deliberately name hosts that are already
	// gone or never existed (the fleet must treat those as no-ops).
	hosts int
	// racks, when > 0, adds rack failures to the mix, with rack indices
	// in [0, 2*racks), half deliberately dangling. Zero draws exactly
	// the flat schedule.
	racks int
}

// genChurn fuzzes a churn schedule: join, fail and drain events (plus
// rack failures when the config has racks) at uniform times, half
// targeting the busiest host (-1) and half targeting explicit
// (possibly dangling) IDs. Host-level events come back as fleet events
// and rack failures as rack-fail fault events, each in time order;
// same-time events keep their draw order. The same seed always yields
// the same schedule.
func genChurn(seed uint64, cfg churnConfig) ([]FleetEvent, []fault.Event) {
	const rackFail = 3 // the drawn kind after HostJoin, HostFail, HostDrain
	rng := rand.New(rand.NewPCG(seed, 0xc4123))
	kinds := 3
	if cfg.racks > 0 {
		kinds = 4
	}
	type draw struct {
		t          sim.Time
		kind, host int
	}
	draws := make([]draw, 0, cfg.events)
	for i := 0; i < cfg.events; i++ {
		d := draw{t: sim.Time(1 + rng.Int64N(int64(cfg.dur)-1)), kind: rng.IntN(kinds), host: -1}
		if d.kind == rackFail {
			d.host = rng.IntN(2 * cfg.racks)
		} else if rng.IntN(2) == 0 && cfg.hosts > 0 {
			d.host = rng.IntN(2 * cfg.hosts)
		}
		draws = append(draws, d)
	}
	sort.SliceStable(draws, func(i, j int) bool { return draws[i].t < draws[j].t })
	var events []FleetEvent
	var racks []fault.Event
	for _, d := range draws {
		if d.kind == rackFail {
			racks = append(racks, fault.Event{T: d.t, Kind: fault.RackFail, Host: d.host, Mag: 1})
		} else {
			events = append(events, FleetEvent{T: d.t, Kind: FleetEventKind(d.kind), Host: d.host})
		}
	}
	return events, racks
}

// TestChurnSchedule pins the properties the churn fuzzer relies on:
// the schedule is a pure function of its seed, sorted by time,
// strictly inside the trace window, and mixes targeted hosts
// (including deliberately dangling IDs) with "busiest" (-1) wildcards.
func TestChurnSchedule(t *testing.T) {
	cfg := churnConfig{dur: 30 * sim.Second, events: 40, hosts: 4}
	a, _ := genChurn(7, cfg)
	b, _ := genChurn(7, cfg)
	if len(a) != cfg.events || len(b) != cfg.events {
		t.Fatalf("lengths %d/%d, want %d", len(a), len(b), cfg.events)
	}
	targeted, wildcard := 0, 0
	for i, ev := range a {
		if ev != b[i] {
			t.Fatalf("event %d differs across same-seed runs: %+v vs %+v", i, ev, b[i])
		}
		if i > 0 && ev.T < a[i-1].T {
			t.Fatalf("events not sorted: %d then %d", a[i-1].T, ev.T)
		}
		if ev.T <= 0 || ev.T >= sim.Time(cfg.dur) {
			t.Fatalf("event %d at %d outside (0, %d)", i, ev.T, cfg.dur)
		}
		if ev.Kind != HostJoin && ev.Kind != HostFail && ev.Kind != HostDrain {
			t.Fatalf("event %d has kind %d", i, ev.Kind)
		}
		if ev.Host == -1 {
			wildcard++
		} else if ev.Host >= 0 && ev.Host < 2*cfg.hosts {
			targeted++
		} else {
			t.Fatalf("event %d targets host %d outside [0, %d)", i, ev.Host, 2*cfg.hosts)
		}
	}
	if targeted == 0 || wildcard == 0 {
		t.Fatalf("no mix: %d targeted, %d wildcard", targeted, wildcard)
	}
	if c, _ := genChurn(8, cfg); slices.Equal(c, a) {
		t.Fatal("different seeds produced identical churn schedules")
	}
}

// TestChurnScheduleRacks: with racks unset the schedule draws no rack
// failure; with racks declared, rack failures appear as rack-fail
// fault events with rack-index targets (possibly dangling, for no-op
// coverage), sorted by time.
func TestChurnScheduleRacks(t *testing.T) {
	cfg := churnConfig{dur: 30 * sim.Second, events: 40, hosts: 4}
	if _, racks := genChurn(7, cfg); len(racks) != 0 {
		t.Fatal("flat schedule drew a rack failure")
	}
	cfg.racks = 2
	events, racks := genChurn(7, cfg)
	if len(racks) == 0 {
		t.Fatal("racked schedule drew no rack failures in 40 events")
	}
	if len(events)+len(racks) != cfg.events {
		t.Fatalf("%d host events + %d rack failures, want %d", len(events), len(racks), cfg.events)
	}
	for i, ev := range racks {
		if ev.Kind != fault.RackFail || ev.Host < 0 || ev.Host >= 2*cfg.racks {
			t.Fatalf("rack failure %+v: want a rack-fail on a rack in [0, %d)", ev, 2*cfg.racks)
		}
		if i > 0 && ev.T < racks[i-1].T {
			t.Fatalf("rack failures not sorted: %d then %d", racks[i-1].T, ev.T)
		}
	}
}

// churnTable extends the metrics fingerprint with the fleet-dynamics
// outcome: churn counters, final fleet shape, and the phase-split
// latency numbers.
func churnTable(c *Cluster) string {
	base := metricsTable(c)
	m := &c.Metrics
	s := fmt.Sprintf("%s joins=%d fails=%d drains=%d repl=%d warmlost=%d nodes=%d active=%d live=%d",
		base, m.HostJoins, m.HostFails, m.HostDrains, m.Replaced, m.WarmLost,
		len(c.Nodes), c.ActiveHosts(), c.LiveHosts())
	if m.ColdPhase != nil {
		for i := 0; i < m.ColdPhase.Phases(); i++ {
			s += fmt.Sprintf(" cold[%d]=%d/%.6f lat[%d]=%d/%.6f",
				i, m.ColdPhase.Phase(i).N(), m.ColdPhase.Phase(i).P99(),
				i, m.LatPhase.Phase(i).N(), m.LatPhase.Phase(i).P99())
		}
	}
	return s
}

// churnRun plays one pressured fleet under a fuzzed churn schedule
// with the given host-order hook, and returns the full fingerprint.
func churnRun(seed uint64, order func([]*Node) []*Node) (uint64, string) {
	const hosts = 4
	dur := 25 * sim.Second
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: hosts, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
		N: 4, KeepAlive: 20 * sim.Second,
		PhaseBounds: []sim.Time{sim.Time(dur / 2)},
	}, NewPolicy("reclaim-aware", cost), faas.NewRecycler())
	c.hostOrder = order
	churn, _ := genChurn(seed, churnConfig{dur: dur, events: 6, hosts: hosts})
	c.Play(fleetStream(seed, 6, dur, 6, 30), fleetFns(), PlayConfig{
		TickEvery: sim.Second, TickUntil: sim.Time(dur),
		DrainUntil: sim.Time(10 * dur),
		Events:     churn,
	})
	return c.Fired(), churnTable(c)
}

// TestChurnShardInvariance is the headline property: for fuzzed churn
// schedules — random join/fail/drain times, targets, and order across
// seeds — the run's fingerprint is byte-identical whether hosts advance
// in host-ID order, reversed, or reshuffled at every epoch. Joins,
// failures and drains change the live set mid-run, so the shuffles
// cover every membership the run passes through.
func TestChurnShardInvariance(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		wantFired, wantTable := churnRun(seed, nil)
		if wantFired == 0 {
			t.Fatalf("seed %d: degenerate run", seed)
		}
		for _, o := range hostOrders {
			gotFired, gotTable := churnRun(seed, o.hook())
			if gotFired != wantFired || gotTable != wantTable {
				t.Fatalf("seed %d: %s host order diverges from host-ID order:\n%d %s\n%d %s",
					seed, o.name, gotFired, gotTable, wantFired, wantTable)
			}
		}
	}
}

// TestAutoscaleShardInvariance runs the pressure-driven autoscaler —
// joins and drains decided by the run itself, not a schedule — across
// the host-order grid and requires byte-identity, plus at least one
// scale-up so the test cannot pass vacuously.
func TestAutoscaleShardInvariance(t *testing.T) {
	run := func(order func([]*Node) []*Node) (uint64, string, int) {
		dur := 25 * sim.Second
		cost := costmodel.Default()
		c := New(cost, Config{
			Hosts: 2, HostMemBytes: 12 * units.GiB, Backend: faas.Squeezy,
			N: 4, KeepAlive: 20 * sim.Second,
		}, NewPolicy("reclaim-aware", cost), faas.NewRecycler())
		c.hostOrder = order
		c.Play(fleetStream(9, 6, dur, 6, 30), fleetFns(), PlayConfig{
			TickEvery: sim.Second, TickUntil: sim.Time(dur),
			DrainUntil: sim.Time(10 * dur),
			Autoscale: &AutoscaleConfig{
				High: 0.6, Low: 0.3, MinHosts: 1, MaxHosts: 6,
				Cooldown: 5 * sim.Second, JoinDelay: 2 * sim.Second,
			},
		})
		return c.Fired(), churnTable(c), c.Metrics.HostJoins
	}
	wantFired, wantTable, joins := run(nil)
	if joins == 0 {
		t.Fatal("autoscaler never scaled up; test setup is vacuous")
	}
	for _, o := range hostOrders {
		gotFired, gotTable, _ := run(o.hook())
		if gotFired != wantFired || gotTable != wantTable {
			t.Fatalf("autoscale: %s host order diverges:\n%d %s\n%d %s",
				o.name, gotFired, gotTable, wantFired, wantTable)
		}
	}
}

// TestFailFreezesPendingEpochWork covers a host dying "during" its own
// epoch: a long-running invocation is mid-execution on the host — its
// completion event pending between boundaries — when the host fails.
// The frozen completion must never fire; the re-placed invocation
// completes exactly once, cold, on the surviving host, paying for the
// lost work. Hand-computed reference: 1 cold completion, latency >
// the function's own cold path (arrival-to-done spans the failure).
func TestFailFreezesPendingEpochWork(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	long := workload.LongHaul()
	completions, dropped := 0, 0
	var doneAt sim.Time
	c.Invoke(long, func(res faas.Result) {
		completions++
		if res.Dropped {
			dropped++
		}
		doneAt = res.Done
	})
	failAt := 2 * sim.Second
	c.AdvanceTo(sim.Time(failAt)) // host 0 is mid-cold-start
	if got := len(c.Nodes[0].attempts); got != 1 {
		t.Fatalf("inflight on host 0 = %d, want 1", got)
	}
	c.failHost(c.Nodes[0])
	if c.Metrics.Replaced != 1 {
		t.Fatalf("Replaced = %d, want 1", c.Metrics.Replaced)
	}
	drainFor(c, 120*sim.Second)
	if completions != 1 || dropped != 0 {
		t.Fatalf("completions=%d dropped=%d, want exactly one clean completion", completions, dropped)
	}
	m := c.Stats()
	if m.ColdStarts != 1 || m.WarmStarts != 0 {
		t.Fatalf("cold=%d warm=%d, want the re-placed run to cold-start once", m.ColdStarts, m.WarmStarts)
	}
	// The run restarted from scratch at the failure: completion lands
	// after failAt plus a full cold path, and the recorded latency —
	// spanning the arrival at t=0 — pays for the lost work.
	if doneAt < sim.Time(failAt+long.ExecCPU) {
		t.Fatalf("completed at %v, before a post-failure restart could finish (failed at %v, exec alone %v)",
			doneAt, failAt, long.ExecCPU)
	}
	if got := m.ColdLatMs.Max(); got < (failAt + long.ExecCPU).Milliseconds() {
		t.Fatalf("recorded latency %.0f ms hides the lost pre-failure work", got)
	}
	if c.Nodes[1].VM(long.Name) == nil {
		t.Fatal("re-placed invocation did not land on the surviving host")
	}
}

// TestFailDuringStartedDrain: the host is already draining — placement
// ineligible, deadline armed — when it fails outright. The failure
// re-places the in-flight work immediately (not at the drain
// deadline), and the deadline later finds a dead host and must be a
// no-op: one completion, one re-placement, no double.
func TestFailDuringStartedDrain(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	long := workload.LongHaul()
	completions := 0
	c.Invoke(long, func(res faas.Result) { completions++ })
	c.AdvanceTo(sim.Time(1 * sim.Second))
	c.startDrain(c.Nodes[0])
	if got := c.ActiveHosts(); got != 1 {
		t.Fatalf("active hosts after drain start = %d, want 1", got)
	}
	c.AdvanceTo(sim.Time(2 * sim.Second))
	c.failHost(c.Nodes[0]) // dies mid-drain, before the deadline
	if c.Metrics.Replaced != 1 {
		t.Fatalf("Replaced = %d, want 1 (re-place at failure, not at deadline)", c.Metrics.Replaced)
	}
	// The armed drain deadline (t=6s) must find a dead host: no second
	// re-placement, no panic.
	c.AdvanceTo(sim.Time(10 * sim.Second))
	c.fireQueued(sim.Time(10 * sim.Second))
	if c.Metrics.Replaced != 1 {
		t.Fatalf("drain deadline re-placed again: Replaced = %d", c.Metrics.Replaced)
	}
	drainFor(c, 120*sim.Second)
	if completions != 1 {
		t.Fatalf("completions = %d, want exactly 1", completions)
	}
	if c.Metrics.HostDrains != 1 || c.Metrics.HostFails != 1 {
		t.Fatalf("drains=%d fails=%d, want 1 each", c.Metrics.HostDrains, c.Metrics.HostFails)
	}
}

// TestFailWithQueuedScaleUpGrant is the PR 2 double-completion class
// under failure: a scale-up's memory grant is queued behind the
// broker when an instance idles and serves the request warm — the
// request detaches, the provision keeps queueing. The host then dies
// with the grant still queued. Both requests completed before the
// failure, so nothing re-places, and the frozen grant must not
// resurrect anything: exactly one completion per request.
func TestFailWithQueuedScaleUpGrant(t *testing.T) {
	// Host memory fits one BFS instance but not two, so the second
	// request's scale-up queues on the broker.
	c := newTestCluster(2, 1280*units.MiB, faas.VirtioMem, "round-robin")
	fn := workload.ByName("BFS")
	var done [2]int
	c.Invoke(fn, func(res faas.Result) { done[0]++ })
	c.Invoke(fn, func(res faas.Result) { done[1]++ })
	// Let request 1 finish: its instance idles, request 2 is served
	// warm (detaching from its queued provision).
	c.AdvanceTo(sim.Time(20 * sim.Second))
	if done[0] != 1 || done[1] != 1 {
		t.Fatalf("completions before failure = %v, want both served", done)
	}
	if got := c.Nodes[0].QueuedPages(); got == 0 {
		t.Fatal("setup: no grant queued at failure time; shrink host memory")
	}
	if got := len(c.Nodes[0].attempts); got != 0 {
		t.Fatalf("inflight = %d, want 0 (both requests completed)", got)
	}
	c.failHost(c.Nodes[0])
	if c.Metrics.Replaced != 0 {
		t.Fatalf("Replaced = %d, want 0 (nothing was in flight)", c.Metrics.Replaced)
	}
	drainFor(c, 120*sim.Second)
	if done[0] != 1 || done[1] != 1 {
		t.Fatalf("completions after failure = %v, want exactly one each (no double-complete)", done)
	}
}

// TestFailLastWarmHost: the failed host held the function's only warm
// instance. The warm pool is counted lost, the frozen keep-alive never
// fires as an eviction, and the next invocation cold-starts on the
// surviving host. Hand-computed: 2 cold starts, 0 warm, 1 warm-lost,
// 0 evictions.
func TestFailLastWarmHost(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin") // 30s keep-alive
	fn := workload.ByName("HTML")
	c.Invoke(fn, nil)
	drainFor(c, 10*sim.Second) // completed, instance idle on host 0
	if got := c.Nodes[0].RT.IdleInstances(); got != 1 {
		t.Fatalf("idle instances on host 0 = %d, want 1", got)
	}
	c.failHost(c.Nodes[0])
	if c.Metrics.WarmLost != 1 {
		t.Fatalf("WarmLost = %d, want 1", c.Metrics.WarmLost)
	}
	c.Invoke(fn, nil)
	// Drain far past the keep-alive: the dead host's eviction timer is
	// frozen and must never count (the survivor's own keep-alive still
	// runs its course).
	drainFor(c, 120*sim.Second)
	m := c.Stats()
	if m.ColdStarts != 2 || m.WarmStarts != 0 {
		t.Fatalf("cold=%d warm=%d, want 2 cold (no warm pool survives the failure)",
			m.ColdStarts, m.WarmStarts)
	}
	if got := c.Nodes[0].VMs()[0].Evictions; got != 0 {
		t.Fatalf("dead host evicted %d instances after death", got)
	}
	if c.Nodes[1].VM(fn.Name) == nil {
		t.Fatal("post-failure invocation did not cold-start on the survivor")
	}
}

// TestDrainDeadlineReplacesExactlyOnce is the regression for
// costmodel.ReclaimDrainTimeout expiry during a graceful drain:
// still-running invocations re-place exactly once — no drop, no
// double-complete. LongHaul outlives the 5 s grace period by construction.
func TestDrainDeadlineReplacesExactlyOnce(t *testing.T) {
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: 2, Backend: faas.Squeezy, N: 2, KeepAlive: 30 * sim.Second,
	}, NewPolicy("round-robin", cost), faas.NewRecycler())
	long := workload.LongHaul()
	var counts [2]int
	for i := range counts {
		i := i
		c.Invoke(long, func(res faas.Result) {
			if !res.Dropped {
				counts[i]++
			}
		})
	}
	if got := len(c.Nodes[0].attempts); got != 2 {
		t.Fatalf("inflight on host 0 = %d, want both placements (N=2 slack)", got)
	}
	c.AdvanceTo(sim.Time(1 * sim.Second))
	c.startDrain(c.Nodes[0])
	deadline := sim.Time(1*sim.Second + costmodel.ReclaimDrainTimeout)
	c.AdvanceTo(deadline)
	c.settleDrains() // both still running: the drain cannot settle early
	if c.LiveHosts() != 2 {
		t.Fatal("drain settled with work in flight")
	}
	c.fireQueued(deadline)
	if c.Metrics.Replaced != 2 {
		t.Fatalf("Replaced = %d, want 2 at the drain deadline", c.Metrics.Replaced)
	}
	if c.LiveHosts() != 1 {
		t.Fatalf("live hosts = %d, want 1 after the deadline retires the host", c.LiveHosts())
	}
	drainFor(c, 120*sim.Second)
	for i := range counts {
		if got := counts[i]; got != 1 {
			t.Fatalf("request %d completed %d times, want exactly once", i, got)
		}
	}
	m := c.Stats()
	if m.Dropped != 0 || m.AdmissionDrops != 0 {
		t.Fatalf("drops = %d/%d, want none", m.Dropped, m.AdmissionDrops)
	}
}

// TestDrainSettlesWhenWorkFinishes: a drain whose work completes
// before the deadline retires at the next boundary without any
// re-placement, and the warm pool is not counted lost.
func TestDrainSettlesWhenWorkFinishes(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	fn := workload.ByName("HTML") // finishes in well under the 5 s grace
	completions := 0
	c.Invoke(fn, func(res faas.Result) { completions++ })
	c.AdvanceTo(sim.Time(500 * sim.Millisecond)) // still running
	c.startDrain(c.Nodes[0])
	c.AdvanceTo(sim.Time(4 * sim.Second)) // finished inside the grace period
	c.settleDrains()
	if c.LiveHosts() != 1 || c.ActiveHosts() != 1 {
		t.Fatalf("live=%d active=%d, want the drained host retired", c.LiveHosts(), c.ActiveHosts())
	}
	if completions != 1 || c.Metrics.Replaced != 0 || c.Metrics.WarmLost != 0 {
		t.Fatalf("completions=%d replaced=%d warmlost=%d, want graceful 1/0/0",
			completions, c.Metrics.Replaced, c.Metrics.WarmLost)
	}
}

// TestJoinedHostTakesPlacements: a join lands on the fleet clock with
// a fresh deterministic identity (next monotonic ID) and immediately
// competes for placements.
func TestJoinedHostTakesPlacements(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	c.AdvanceTo(sim.Time(5 * sim.Second))
	n := c.joinHost()
	if n.ID != 2 || c.ActiveHosts() != 3 || len(c.Nodes) != 3 {
		t.Fatalf("join shape: id=%d active=%d nodes=%d", n.ID, c.ActiveHosts(), len(c.Nodes))
	}
	if n.Sched.Now() != c.Now() {
		t.Fatalf("joined host clock %v, want fleet clock %v", n.Sched.Now(), c.Now())
	}
	// Three cold placements round-robin across all three hosts.
	for _, fn := range fleetFuncs(3) {
		c.Invoke(fn, nil)
	}
	drainFor(c, 20*sim.Second)
	if got := len(n.VMs()); got != 1 {
		t.Fatalf("joined host has %d VMs, want 1 of 3 placements", got)
	}
}

// TestFleetEventNoOps: dangling targets, dead targets, and
// last-active-host removals must all be safe no-ops — fuzzed churn
// schedules produce all of them.
func TestFleetEventNoOps(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	c.ScheduleFleetEvents([]FleetEvent{
		{T: 0, Kind: HostFail, Host: 99}, // never existed
		{T: 0, Kind: HostDrain, Host: 0}, // fine: drains host 0
		{T: 0, Kind: HostDrain, Host: 0}, // already draining
		{T: 0, Kind: HostFail, Host: 1},  // would remove the last active host
		{T: 0, Kind: HostDrain, Host: 1}, // likewise
	})
	c.fireQueued(0)
	if c.Metrics.HostDrains != 1 || c.Metrics.HostFails != 0 {
		t.Fatalf("drains=%d fails=%d, want exactly one drain", c.Metrics.HostDrains, c.Metrics.HostFails)
	}
	if c.ActiveHosts() != 1 {
		t.Fatalf("active hosts = %d, want 1", c.ActiveHosts())
	}
}

// TestResetClearsChurnState: a churned cluster reset to a static
// config must replay identically to a fresh one — joined hosts
// trimmed, dead hosts revived, queues cleared.
func TestResetClearsChurnState(t *testing.T) {
	cost := costmodel.Default()
	cfg := Config{Hosts: 3, HostMemBytes: 24 * units.GiB, Backend: faas.Squeezy, N: 4,
		KeepAlive: 30 * sim.Second}
	replay := func(c *Cluster) (uint64, string) {
		c.Play(fleetStream(3, 8, 30*sim.Second, 4, 24), fleetFns(), PlayConfig{
			TickEvery: sim.Second, TickUntil: sim.Time(30 * sim.Second),
			DrainUntil: sim.Time(300 * sim.Second),
		})
		return c.Fired(), churnTable(c)
	}
	fresh := New(cost, cfg, NewPolicy("reclaim-aware", cost), faas.NewRecycler())
	wantFired, wantTable := replay(fresh)

	churned := New(cost, cfg, NewPolicy("reclaim-aware", cost), faas.NewRecycler())
	churned.Play(fleetStream(5, 8, 20*sim.Second, 4, 24), fleetFns(), PlayConfig{
		TickEvery: sim.Second, TickUntil: sim.Time(20 * sim.Second),
		DrainUntil: sim.Time(100 * sim.Second),
		Events: []FleetEvent{
			{T: sim.Time(5 * sim.Second), Kind: HostJoin},
			{T: sim.Time(8 * sim.Second), Kind: HostFail, Host: -1},
			{T: sim.Time(12 * sim.Second), Kind: HostDrain, Host: -1},
		},
	})
	churned.Reset(cost, cfg, NewPolicy("reclaim-aware", cost))
	gotFired, gotTable := replay(churned)
	if gotFired != wantFired || gotTable != wantTable {
		t.Fatalf("reset-after-churn replay diverges:\n%d %s\n%d %s",
			gotFired, gotTable, wantFired, wantTable)
	}
}
