package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// The observability determinism suite: attaching a trace recorder must
// not perturb the simulation (tables byte-identical to an untraced
// run), and the recorded trace itself must be byte-identical whatever
// order the hosts advance in — the TestChurnShardInvariance bar
// applied to the instrumentation.

// churnRunObs is churnRun with a trace attached; same fixture, same
// fingerprint, plus the recorded trace.
func churnRunObs(seed uint64, order func([]*Node) []*Node) (uint64, string, *obs.Trace) {
	const hosts = 4
	dur := 25 * sim.Second
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: hosts, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
		N: 4, KeepAlive: 20 * sim.Second,
		PhaseBounds: []sim.Time{sim.Time(dur / 2)},
	}, NewPolicy("reclaim-aware", cost), faas.NewRecycler())
	c.hostOrder = order
	tr := &obs.Trace{Experiment: "churn", Label: fmt.Sprintf("seed%d", seed)}
	c.AttachObs(tr)
	churn, _ := genChurn(seed, churnConfig{dur: dur, events: 6, hosts: hosts})
	c.Play(fleetStream(seed, 6, dur, 6, 30), fleetFns(), PlayConfig{
		TickEvery: sim.Second, TickUntil: sim.Time(dur),
		DrainUntil: sim.Time(10 * dur),
		Events:     churn,
	})
	return c.Fired(), churnTable(c), tr
}

// exportBytes renders a trace plus its counter registry to the exact
// bytes squeezyctl would write, the strongest equality we can ask for.
func exportBytes(t *testing.T, tr *obs.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, []*obs.Trace{tr}, nil); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetrics(&buf, []*obs.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestObsLeavesTablesIdentical is the tentpole guarantee: the same
// churned fleet run with tracing attached produces a byte-identical
// fingerprint to the untraced run, in host-ID order and across the
// host-order grid. Recording observes; it never schedules, randomizes,
// or feeds back.
func TestObsLeavesTablesIdentical(t *testing.T) {
	orders := append([]orderCase{{"id", func() func([]*Node) []*Node { return nil }}}, hostOrders...)
	for seed := uint64(1); seed <= 2; seed++ {
		wantFired, wantTable := churnRun(seed, nil) // tracing off
		for _, o := range orders {
			gotFired, gotTable, tr := churnRunObs(seed, o.hook())
			if gotFired != wantFired || gotTable != wantTable {
				t.Fatalf("seed %d order=%s: tracing perturbed the run:\n%d %s\n%d %s",
					seed, o.name, gotFired, gotTable, wantFired, wantTable)
			}
			if tr.Empty() {
				t.Fatalf("seed %d: churned run recorded nothing; test is vacuous", seed)
			}
		}
	}
}

// TestObsTraceShardInvariance: the exported trace (events, lanes,
// counters — the full byte stream) is identical at every point of the
// host-order grid. Host tracks are host-private and the fleet track is
// written only at serial boundaries, so the order in which hosts
// advance cannot reorder anything.
func TestObsTraceShardInvariance(t *testing.T) {
	_, _, base := churnRunObs(1, nil)
	want := exportBytes(t, base)
	for _, o := range hostOrders {
		_, _, tr := churnRunObs(1, o.hook())
		if got := exportBytes(t, tr); got != want {
			t.Fatalf("%s host order: exported trace diverges from host-ID order (%d vs %d bytes)",
				o.name, len(got), len(want))
		}
	}
}

// TestObsAutoscaleCounters: the pressure-driven autoscaler records its
// decisions — tables stay identical to the untraced run, and the
// counter registry reports the same scale-ups the metrics struct does.
func TestObsAutoscaleCounters(t *testing.T) {
	run := func(attach bool) (uint64, string, *obs.Trace, *Cluster, int) {
		dur := 25 * sim.Second
		cost := costmodel.Default()
		c := New(cost, Config{
			Hosts: 2, HostMemBytes: 12 * units.GiB, Backend: faas.Squeezy,
			N: 4, KeepAlive: 20 * sim.Second,
		}, NewPolicy("reclaim-aware", cost), faas.NewRecycler())
		var tr *obs.Trace
		if attach {
			tr = &obs.Trace{Experiment: "autoscale"}
			c.AttachObs(tr)
		}
		invs := drainStream(fleetStream(9, 6, dur, 6, 30))
		n := len(invs)
		c.Play(&invs, fleetFns(), PlayConfig{
			TickEvery: sim.Second, TickUntil: sim.Time(dur),
			DrainUntil: sim.Time(10 * dur),
			Autoscale: &AutoscaleConfig{
				High: 0.6, Low: 0.3, MinHosts: 1, MaxHosts: 6,
				Cooldown: 5 * sim.Second, JoinDelay: 2 * sim.Second,
			},
		})
		return c.Fired(), churnTable(c), tr, c, n
	}
	wantFired, wantTable, _, _, _ := run(false)
	gotFired, gotTable, tr, c, invoked := run(true)
	if gotFired != wantFired || gotTable != wantTable {
		t.Fatalf("tracing perturbed the autoscaled run:\n%d %s\n%d %s",
			gotFired, gotTable, wantFired, wantTable)
	}
	counters := tr.Counters()
	if got, want := counters["autoscale/up"], int64(c.Metrics.HostJoins); got != want || want == 0 {
		t.Fatalf("autoscale/up counter = %d, metrics joins = %d (want equal, nonzero)", got, want)
	}
	if got, want := counters["invocations"], int64(invoked); got != want {
		t.Fatalf("invocations counter = %d, submitted = %d", got, want)
	}
}

// TestObsDetach: AttachObs(nil) restores the disabled path — node and
// runtime recorders cleared — so a pooled fleet reused by an untraced
// cell records nothing into a stale trace.
func TestObsDetach(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	tr := &obs.Trace{Experiment: "x"}
	c.AttachObs(tr)
	c.AttachObs(nil)
	for _, n := range c.Nodes {
		if n.Obs != nil || n.RT.Obs != nil {
			t.Fatal("detach left a live recorder on a node")
		}
	}
	c.Invoke(workload.ByName("HTML"), nil)
	drainFor(c, 20*sim.Second)
	if !tr.Empty() {
		t.Fatal("detached trace still recorded events")
	}
}
