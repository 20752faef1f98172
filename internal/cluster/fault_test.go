package cluster

import (
	"fmt"
	"strings"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/fault"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// The fault-injection determinism suite: PR 8's extension of the churn
// byte-identity guarantee. Fuzzed fault plans — overlapping windows of
// every kind, probabilistic boot failures and crashes drawn from
// per-host counter-mode streams — compose with fuzzed churn and the
// full resilience layer, and the run must still be a pure function of
// (seed, config) whatever order the hosts advance in.

// faultTable extends the churn fingerprint with the resilience-layer
// outcome, so a divergence anywhere in the retry/hedge/shed machinery
// breaks byte-identity.
func faultTable(c *Cluster) string {
	m := &c.Metrics
	return fmt.Sprintf("%s failed=%d shed=%d admdrop=%d timeouts=%d retries=%d hedges=%d hedgewins=%d",
		churnTable(c), c.Stats().Failed, m.Shed, m.AdmissionDrops,
		m.TimedOut, m.Retries, m.Hedges, m.HedgeWins)
}

// hostsTable fingerprints the per-host accounting that the fleet
// tables merge away: which host each completion was accounted on.
func hostsTable(c *Cluster) string {
	var sb strings.Builder
	for _, n := range c.Nodes {
		m := &n.M
		fmt.Fprintf(&sb, "h%d cold=%d/%.6f warm=%d/%.6f drop=%d fail=%d\n", n.ID,
			m.ColdStarts, m.ColdLatMs.Sum(), m.WarmStarts, m.WarmLatMs.Sum(), m.Dropped, m.Failed)
	}
	return sb.String()
}

// faultRun plays one pressured fleet under a fuzzed fault plan, fuzzed
// churn, and the full resilience layer (tight timeout so retries and
// hedges actually fire at this scale), and returns the fingerprint.
func faultRun(seed uint64, order func([]*Node) []*Node) (uint64, string) {
	c := playFaultFixture(seed, order, &ResilienceConfig{
		Timeout: 5 * sim.Second, Hedge: true, HedgeDelay: 3 * sim.Second, Shed: true,
	}, nil)
	return c.Fired(), faultTable(c)
}

// playFaultFixture plays faultRun's fleet (4 hosts, squeezy,
// reclaim-aware, fuzzed churn and faults) under the given resilience
// and pacing configs and returns the cluster.
func playFaultFixture(seed uint64, order func([]*Node) []*Node, resil *ResilienceConfig, repace *RepaceConfig) *Cluster {
	const hosts = 4
	dur := 25 * sim.Second
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: hosts, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
		N: 4, KeepAlive: 20 * sim.Second,
		PhaseBounds: []sim.Time{sim.Time(dur / 2)},
		Resilience:  resil,
		Repace:      repace,
	}, NewPolicy("reclaim-aware", cost))
	c.hostOrder = order
	churn, _ := genChurn(seed, churnConfig{dur: dur, events: 4, hosts: hosts})
	c.Play(fleetStream(seed, 6, dur, 6, 30), fleetFns(), PlayConfig{
		TickEvery: sim.Second, TickUntil: sim.Time(dur),
		DrainUntil: sim.Time(10 * dur),
		Events:     churn,
		Faults: fault.GenFaults(seed, fault.Config{
			Duration: dur, Events: 8, Hosts: hosts,
		}),
		FaultSeed: seed,
	})
	return c
}

// TestResilienceOffMatchesPlain: the resilience layer with nothing
// armed — no retry budget, no hedge, no shedding, a timeout too short
// or too long to matter — must play faultRun's fuzzed churn and fault
// fixture exactly as plain dispatch does, paced or not: same events,
// same table, every completion accounted on the same host. Resolving
// attempts at boundaries instead of on the host moves no result.
func TestResilienceOffMatchesPlain(t *testing.T) {
	replaced := 0
	for seed := uint64(1); seed <= 8; seed++ {
		for _, repace := range []*RepaceConfig{nil, {}} {
			plain := playFaultFixture(seed, nil, nil, repace)
			wantFired, wantTable := plain.Fired(), faultTable(plain)+"\n"+hostsTable(plain)
			replaced += plain.Metrics.Replaced
			for _, timeout := range []sim.Duration{2 * sim.Second, 1000 * sim.Second} {
				c := playFaultFixture(seed, nil, &ResilienceConfig{MaxRetries: -1, Timeout: timeout}, repace)
				gotFired, gotTable := c.Fired(), faultTable(c)+"\n"+hostsTable(c)
				if gotFired != wantFired || gotTable != wantTable {
					t.Fatalf("seed %d, paced %v, timeout %v: resilience-off diverges from plain:\n%d %s\n%d %s",
						seed, repace != nil, timeout, gotFired, gotTable, wantFired, wantTable)
				}
			}
		}
	}
	if replaced == 0 {
		t.Fatal("no seed re-placed any work; the equivalence is vacuous")
	}
}

// TestFaultShardInvariance is the PR 8 headline property: fuzzed fault
// plans layered on fuzzed churn with retries, hedging, and shedding
// all active, byte-identical at every point of the host-order grid.
func TestFaultShardInvariance(t *testing.T) {
	exercised := false
	for seed := uint64(1); seed <= 3; seed++ {
		wantFired, wantTable := faultRun(seed, nil)
		if wantFired == 0 {
			t.Fatalf("seed %d: degenerate run", seed)
		}
		for _, o := range hostOrders {
			gotFired, gotTable := faultRun(seed, o.hook())
			if gotFired != wantFired || gotTable != wantTable {
				t.Fatalf("seed %d: %s host order diverges from host-ID order:\n%d %s\n%d %s",
					seed, o.name, gotFired, gotTable, wantFired, wantTable)
			}
		}
		c := rerunForMetrics(seed)
		if c.Stats().Failed+c.Metrics.Retries+c.Metrics.TimedOut > 0 {
			exercised = true
		}
	}
	if !exercised {
		t.Fatal("no seed exercised the fault/retry machinery; the invariance is vacuous")
	}
}

// rerunForMetrics replays one serial faultRun and returns the cluster
// for non-degeneracy inspection.
func rerunForMetrics(seed uint64) *Cluster {
	const hosts = 4
	dur := 25 * sim.Second
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: hosts, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
		N: 4, KeepAlive: 20 * sim.Second,
		Resilience: &ResilienceConfig{
			Timeout: 5 * sim.Second, Hedge: true, HedgeDelay: 3 * sim.Second, Shed: true,
		},
	}, NewPolicy("reclaim-aware", cost))
	c.Play(fleetStream(seed, 6, dur, 6, 30), fleetFns(), PlayConfig{
		TickEvery: sim.Second, TickUntil: sim.Time(dur),
		DrainUntil: sim.Time(10 * dur),
		Faults: fault.GenFaults(seed, fault.Config{
			Duration: dur, Events: 8, Hosts: hosts,
		}),
		FaultSeed: seed,
	})
	return c
}

// TestFaultTracedMatchesUntraced: attaching a trace to a faulted,
// resilient run must not perturb it — the observability hooks on every
// fault, timeout, retry, hedge, and shed decision are read-only.
func TestFaultTracedMatchesUntraced(t *testing.T) {
	run := func(traced bool) (uint64, string) {
		const hosts = 4
		dur := 25 * sim.Second
		cost := costmodel.Default()
		c := New(cost, Config{
			Hosts: hosts, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
			N: 4, KeepAlive: 20 * sim.Second,
			Resilience: &ResilienceConfig{
				Timeout: 5 * sim.Second, Hedge: true, HedgeDelay: 3 * sim.Second, Shed: true,
			},
		}, NewPolicy("reclaim-aware", cost))
		if traced {
			c.AttachObs(&obs.Trace{Experiment: "faults"})
		}
		c.Play(fleetStream(2, 6, dur, 6, 30), fleetFns(), PlayConfig{
			TickEvery: sim.Second, TickUntil: sim.Time(dur),
			DrainUntil: sim.Time(10 * dur),
			Faults: fault.GenFaults(2, fault.Config{
				Duration: dur, Events: 8, Hosts: hosts,
			}),
			FaultSeed: 2,
		})
		return c.Fired(), faultTable(c)
	}
	wantFired, wantTable := run(false)
	gotFired, gotTable := run(true)
	if gotFired != wantFired || gotTable != wantTable {
		t.Fatalf("traced run diverges from untraced:\n%d %s\n%d %s",
			gotFired, gotTable, wantFired, wantTable)
	}
}

// TestFaultNoOpPlansByteIdentical: an empty fault plan, and a plan
// whose windows all target hosts that never exist, must leave the run
// byte-identical to one with no plan at all — extra epoch boundaries
// and armed injectors may not perturb anything.
func TestFaultNoOpPlansByteIdentical(t *testing.T) {
	run := func(faults []fault.Event) (uint64, string) {
		dur := 25 * sim.Second
		cost := costmodel.Default()
		c := New(cost, Config{
			Hosts: 3, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
			N: 4, KeepAlive: 20 * sim.Second,
		}, NewPolicy("reclaim-aware", cost))
		c.Play(fleetStream(4, 6, dur, 6, 30), fleetFns(), PlayConfig{
			TickEvery: sim.Second, TickUntil: sim.Time(dur),
			DrainUntil: sim.Time(10 * dur),
			Faults:     faults, FaultSeed: 4,
		})
		return c.Fired(), churnTable(c)
	}
	wantFired, wantTable := run(nil)
	plans := map[string][]fault.Event{
		"empty": {},
		"dangling": {
			{T: sim.Time(2 * sim.Second), Dur: 5 * sim.Second, Kind: fault.ColdFail, Host: 99, Mag: 1},
			{T: sim.Time(3 * sim.Second), Dur: 5 * sim.Second, Kind: fault.Straggler, Host: 7, Mag: 8},
		},
	}
	for name, plan := range plans {
		gotFired, gotTable := run(plan)
		if gotFired != wantFired || gotTable != wantTable {
			t.Fatalf("%s plan diverges from no plan:\n%d %s\n%d %s",
				name, gotFired, gotTable, wantFired, wantTable)
		}
	}
}

// stepBoundaries drives the dispatcher boundary loop the way Play does
// — advance, then fire the boundary's queued work — in fixed steps up
// to `until`. Manual-mode tests need it: outside Play nothing else runs
// the boundary sequence, so retries, hedges and paced re-placements
// would never fire.
func stepBoundaries(c *Cluster, until sim.Time) {
	for t := c.Now(); t < until; {
		t = t.Add(500 * sim.Millisecond)
		if t > until {
			t = until
		}
		c.AdvanceTo(t)
		c.fireQueued(t)
	}
}

// TestRetryAfterColdFail: a certain cold-boot failure inside a short
// window, then a retry after backoff lands outside it and completes —
// exactly one completion, no terminal failure. Hand-computed: the
// failed boot burns MicroVMBoot (~0.7 s), the 2 s backoff re-dispatches
// at ~3 s, past the 1 s window close.
func TestRetryAfterColdFail(t *testing.T) {
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: 2, Backend: faas.Squeezy, N: 4, KeepAlive: 30 * sim.Second,
		Resilience: &ResilienceConfig{BackoffBase: 2 * sim.Second},
	}, NewPolicy("round-robin", cost))
	c.ScheduleFaults([]fault.Event{
		{T: 0, Dur: 1 * sim.Second, Kind: fault.ColdFail, Host: -1, Mag: 1},
	}, 7)
	c.fireQueued(0)
	fn := workload.ByName("HTML")
	completions, failures := 0, 0
	c.Invoke(fn, func(res faas.Result) {
		if res.Failed || res.Dropped {
			failures++
		} else {
			completions++
		}
	})
	stepBoundaries(c, sim.Time(120*sim.Second))
	c.finishResil()
	if completions != 1 || failures != 0 {
		t.Fatalf("completions=%d failures=%d, want exactly one clean completion", completions, failures)
	}
	if c.Metrics.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", c.Metrics.Retries)
	}
	if got := c.Stats().Failed; got != 0 {
		t.Fatalf("Failed = %d, want 0 (the retry rescued the flight)", got)
	}
}

// TestRetryBudgetExhaustedFailsOnce: with the window covering every
// retry, the flight fails terminally after MaxRetries re-dispatches —
// exactly one failure callback, accounted exactly once.
func TestRetryBudgetExhaustedFailsOnce(t *testing.T) {
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: 2, Backend: faas.Squeezy, N: 4, KeepAlive: 30 * sim.Second,
		Resilience: &ResilienceConfig{MaxRetries: 2},
	}, NewPolicy("round-robin", cost))
	c.ScheduleFaults([]fault.Event{
		{T: 0, Dur: 600 * sim.Second, Kind: fault.ColdFail, Host: -1, Mag: 1},
	}, 7)
	c.fireQueued(0)
	fn := workload.ByName("HTML")
	callbacks, failures := 0, 0
	c.Invoke(fn, func(res faas.Result) {
		callbacks++
		if res.Failed {
			failures++
		}
	})
	stepBoundaries(c, sim.Time(120*sim.Second))
	c.finishResil()
	if callbacks != 1 || failures != 1 {
		t.Fatalf("callbacks=%d failures=%d, want exactly one terminal failure", callbacks, failures)
	}
	if c.Metrics.Retries != 2 {
		t.Fatalf("Retries = %d, want the full budget of 2", c.Metrics.Retries)
	}
	if got := c.Stats().Failed; got != 1 {
		t.Fatalf("Failed = %d, want 1", got)
	}
}

// TestHostFailMidBackoff: the flight's only attempt fails on a fault
// window, and while its retry backoff is pending the host that failed
// it dies. The retry must land on the survivor and complete exactly
// once.
func TestHostFailMidBackoff(t *testing.T) {
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: 2, Backend: faas.Squeezy, N: 4, KeepAlive: 30 * sim.Second,
		Resilience: &ResilienceConfig{BackoffBase: 4 * sim.Second},
	}, NewPolicy("round-robin", cost))
	c.ScheduleFaults([]fault.Event{
		// Only host 0 fails boots; round-robin places the primary there.
		{T: 0, Dur: 1 * sim.Second, Kind: fault.ColdFail, Host: 0, Mag: 1},
	}, 7)
	c.fireQueued(0)
	fn := workload.ByName("HTML")
	var completions int
	c.Invoke(fn, func(res faas.Result) {
		if !res.Failed && !res.Dropped {
			completions++
		}
	})
	// Let the boot failure settle and the backoff arm, then kill the
	// failed host while the retry is still pending.
	c.AdvanceTo(sim.Time(2 * sim.Second))
	c.fireQueued(sim.Time(2 * sim.Second))
	if c.Metrics.Retries != 1 {
		t.Fatalf("Retries = %d, want 1 armed before the host dies", c.Metrics.Retries)
	}
	c.failHost(c.Nodes[0])
	stepBoundaries(c, sim.Time(120*sim.Second))
	c.finishResil()
	if got := completions; got != 1 {
		t.Fatalf("completions = %d, want exactly 1 on the survivor", got)
	}
	if c.Nodes[1].VM(fn.Name) == nil {
		t.Fatal("retry did not land on the surviving host")
	}
}

// TestHedgeOutstandingWhenHostDrains: the primary runs on a straggling
// host, the hedge lands warm on the other — which then drains with the
// hedge outstanding. The drain deadline re-places the hedge attempt;
// whichever racer wins, the flight completes exactly once.
func TestHedgeOutstandingWhenHostDrains(t *testing.T) {
	long := workload.LongHaul()
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: 2, Backend: faas.Squeezy, N: 1, KeepAlive: 60 * sim.Second,
		Resilience: &ResilienceConfig{Hedge: true, HedgeDelay: 2 * sim.Second},
	}, NewPolicy("round-robin", cost))
	// Pre-warm both hosts so the hedge finds an idle warm instance.
	var warm int
	c.Invoke(long, func(res faas.Result) { warm++ })
	c.Invoke(long, func(res faas.Result) { warm++ })
	drainFor(c, 60*sim.Second)
	c.resolveSettled()
	if got := warm; got != 2 {
		t.Fatalf("pre-warm completions = %d, want 2", got)
	}
	// Host 0 turns straggler; the next invocation runs warm there (12 s
	// of warm exec at 10x), the hedge fires at +2 s onto host 1's warm
	// instance, and host 1 immediately starts draining.
	c.ScheduleFaults([]fault.Event{
		{T: c.Now(), Dur: 600 * sim.Second, Kind: fault.Straggler, Host: 0, Mag: 10},
	}, 7)
	c.fireQueued(c.Now())
	var completions int
	c.Invoke(long, func(res faas.Result) {
		if !res.Failed && !res.Dropped {
			completions++
		}
	})
	start := c.Now()
	c.AdvanceTo(start.Add(3 * sim.Second))
	c.fireQueued(c.Now())
	if c.Metrics.Hedges != 1 {
		t.Fatalf("Hedges = %d, want the hedge launched before the drain", c.Metrics.Hedges)
	}
	c.startDrain(c.Nodes[1])
	// Ride past the drain deadline: the hedge attempt re-places.
	deadline := c.Now().Add(costmodel.ReclaimDrainTimeout)
	c.AdvanceTo(deadline)
	c.fireQueued(deadline)
	drainFor(c, 600*sim.Second)
	c.finishResil()
	if got := completions; got != 1 {
		t.Fatalf("completions = %d, want exactly once across primary, hedge, and re-placement", got)
	}
}

// TestRetryLandsOnJoinedHost: the fleet's only host fails every cold
// boot, and dies while the flight's retry backoff is pending. A host
// that joined mid-backoff — after the fault plan was scheduled, so its
// injector is armed at join — is the only placement left, and the
// retry lands there cleanly, exactly once.
func TestRetryLandsOnJoinedHost(t *testing.T) {
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: 1, Backend: faas.Squeezy, N: 4, KeepAlive: 30 * sim.Second,
		Resilience: &ResilienceConfig{BackoffBase: 4 * sim.Second},
	}, NewPolicy("round-robin", cost))
	c.ScheduleFaults([]fault.Event{
		{T: 0, Dur: 600 * sim.Second, Kind: fault.ColdFail, Host: 0, Mag: 1},
	}, 7)
	c.fireQueued(0)
	fn := workload.ByName("HTML")
	completions, failures := 0, 0
	c.Invoke(fn, func(res faas.Result) {
		if res.Failed || res.Dropped {
			failures++
		} else {
			completions++
		}
	})
	c.AdvanceTo(sim.Time(2 * sim.Second))
	c.fireQueued(sim.Time(2 * sim.Second))
	if c.Metrics.Retries != 1 {
		t.Fatalf("Retries = %d, want the backoff armed", c.Metrics.Retries)
	}
	n := c.joinHost()
	if n.inj == nil {
		t.Fatal("joined host was not armed with an injector")
	}
	c.failHost(c.Nodes[0])
	stepBoundaries(c, sim.Time(120*sim.Second))
	c.finishResil()
	if completions != 1 || failures != 0 {
		t.Fatalf("completions=%d failures=%d, want the retry to land cleanly on the joiner", completions, failures)
	}
	if n.VM(fn.Name) == nil {
		t.Fatal("retry did not land on the joined host")
	}
}
