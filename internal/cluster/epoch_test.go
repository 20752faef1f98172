package cluster

import (
	"math/rand/v2"
	"slices"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/sim"
	"squeezy/internal/units"
)

// orderCase is one point of the host-order grid the order-invariance
// suites run: hook builds a fresh hostOrder per run (shuffles carry
// their own RNG state), nil meaning production host-ID order.
type orderCase struct {
	name string
	hook func() func([]*Node) []*Node
}

// hostOrders is that grid beyond the host-ID baseline: the reverse of
// host-ID order at every epoch and two seeded shuffles drawn afresh at
// every epoch. A result that changes under any of them leaks the order
// in which hosts advance — a host-locality bug.
var hostOrders = []orderCase{
	{"reversed", func() func([]*Node) []*Node { return reversedOrder }},
	{"shuffle-1", func() func([]*Node) []*Node { return shuffledOrder(1) }},
	{"shuffle-2", func() func([]*Node) []*Node { return shuffledOrder(2) }},
}

func reversedOrder(live []*Node) []*Node {
	out := slices.Clone(live)
	slices.Reverse(out)
	return out
}

func shuffledOrder(seed uint64) func([]*Node) []*Node {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	return func(live []*Node) []*Node {
		out := slices.Clone(live)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
}

// orderedRun plays one pressured fleet with the given host-order hook
// and returns the run's full fingerprint: total events fired plus the
// flattened metrics table.
func orderedRun(t *testing.T, backend faas.BackendKind, order func([]*Node) []*Node) (uint64, string) {
	t.Helper()
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: 3, HostMemBytes: 20 * units.GiB, Backend: backend,
		N: 4, KeepAlive: 20 * sim.Second,
	}, NewPolicy("reclaim-aware", cost))
	c.hostOrder = order
	c.Play(fleetStream(11, 8, 30*sim.Second, 6, 30), fleetFns(), PlayConfig{
		TickEvery: sim.Second, TickUntil: sim.Time(30 * sim.Second),
		DrainUntil: sim.Time(300 * sim.Second),
	})
	return c.Fired(), metricsTable(c)
}

// TestShardCountInvariance is the core acceptance property of the
// epoch engine: hosts interact only through the dispatcher, so the
// same fleet run must fire the exact same events and produce a
// byte-identical metrics table whatever order the hosts advance to
// each boundary and drain to the horizon in. (The name predates the
// host-order grid: the suite once varied the drain's shard count.)
func TestShardCountInvariance(t *testing.T) {
	for _, backend := range []faas.BackendKind{faas.VirtioMem, faas.Squeezy, faas.Harvest} {
		wantFired, wantTable := orderedRun(t, backend, nil)
		if wantFired == 0 {
			t.Fatalf("%v: degenerate run", backend)
		}
		for _, o := range hostOrders {
			gotFired, gotTable := orderedRun(t, backend, o.hook())
			if gotFired != wantFired || gotTable != wantTable {
				t.Fatalf("%v: %s host order diverges from host-ID order:\n%d %s\n%d %s",
					backend, o.name, gotFired, gotTable, wantFired, wantTable)
			}
		}
	}
}

// TestEpochsRunInline guards the engine's shape and the order hook the
// invariance suites depend on: every epoch advance and the final drain
// is one inline walk over the live hosts, each going through hostOrder
// exactly once with the full live set in host-ID order — so those
// suites cannot pass vacuously with a hook that never runs.
// Observing through an identity hook must not change the run.
func TestEpochsRunInline(t *testing.T) {
	cost := costmodel.Default()
	c := New(cost, Config{Hosts: 3, Backend: faas.Squeezy}, NewPolicy("round-robin", cost))
	var walks int
	c.hostOrder = func(live []*Node) []*Node {
		walks++
		for i, n := range live {
			if n != c.Nodes[i] {
				t.Fatalf("walk %d: live[%d] is host %d, want host-ID order", walks, i, n.ID)
			}
		}
		if len(live) != 3 {
			t.Fatalf("walk %d covers %d hosts, want 3", walks, len(live))
		}
		return live
	}
	// Memory ticks at 0, 1 s, ..., 10 s are the only boundaries: eleven
	// advances, then one drain.
	c.Play(&sliceStream{}, nil, PlayConfig{
		TickEvery: sim.Second, TickUntil: sim.Time(10 * sim.Second),
		DrainUntil: sim.Time(20 * sim.Second),
	})
	if walks != 12 {
		t.Fatalf("hostOrder ran %d times, want 11 advances + 1 drain", walks)
	}

	wantFired, wantTable := orderedRun(t, faas.Squeezy, nil)
	gotFired, gotTable := orderedRun(t, faas.Squeezy, func(live []*Node) []*Node { return live })
	if gotFired != wantFired || gotTable != wantTable {
		t.Fatalf("identity hook diverges from nil hook:\n%d %s\n%d %s",
			gotFired, gotTable, wantFired, wantTable)
	}
}

// TestPlayTickCadence pins the memory-sample schedule: ticks at 0,
// 1 s, ..., TickUntil inclusive, regardless of invocation timing.
func TestPlayTickCadence(t *testing.T) {
	cost := costmodel.Default()
	c := New(cost, Config{Hosts: 2, Backend: faas.Squeezy},
		NewPolicy("round-robin", cost))
	c.Play(fleetStream(5, 4, 10*sim.Second, 2, 8), fleetFns(), PlayConfig{
		TickEvery: sim.Second, TickUntil: sim.Time(10 * sim.Second),
		DrainUntil: sim.Time(20 * sim.Second),
	})
	if got, want := c.Metrics.Committed.Len(), 11; got != want {
		t.Fatalf("memory samples = %d, want %d", got, want)
	}
	if c.Now() != sim.Time(20*sim.Second) {
		t.Fatalf("dispatcher clock = %v, want drain horizon", c.Now())
	}
}
