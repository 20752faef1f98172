package cluster

import (
	"fmt"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/trace"
	"squeezy/internal/units"
)

// The streaming determinism suite: the epoch loop fed by a live trace
// cursor — diurnally modulated, with reservoir sketches collecting the
// latency tails — must remain byte-identical across host orders and
// streamed-vs-drained replay.

// streamRun plays a diurnally modulated fleet trace with reservoir
// sketches on, either streamed straight from the generator cursors or
// drained into a slice first, and returns the run's fingerprint — the
// churn table extended with the sketches' order-insensitive content
// fingerprints and a deep-tail percentile only sketches serve.
func streamRun(seed uint64, order func([]*Node) []*Node, materialize bool) (uint64, string) {
	const hosts, funcs = 4, 6
	dur := 25 * sim.Second
	cost := costmodel.Default()
	c := New(cost, Config{
		Hosts: hosts, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
		N: 4, KeepAlive: 20 * sim.Second,
		PhaseBounds: []sim.Time{sim.Time(dur / 2)},
		Sketch:      &stats.SketchConfig{K: 256, Seed: seed},
	}, NewPolicy("reclaim-aware", cost))
	c.hostOrder = order
	var src trace.Stream = trace.NewFleetStream(seed, trace.FleetConfig{
		Funcs: funcs, Duration: dur,
		TotalBaseRPS: 6, TotalBurstRPS: 30,
		Modulation: []trace.DiurnalConfig{
			{Period: dur / 2, Amplitude: 0.5},
			{Period: dur, Amplitude: 0.2, Phase: 1.0},
		},
	})
	if materialize {
		invs := drainStream(src)
		src = &invs
	}
	c.Play(src, fleetFns(), PlayConfig{
		TickEvery: sim.Second, TickUntil: sim.Time(dur),
		DrainUntil: sim.Time(10 * dur),
	})
	m := c.Stats()
	table := fmt.Sprintf("%s skfp=%x/%x/%x p999=%.6f/%.6f",
		churnTable(c),
		m.ColdLatMs.SketchFingerprint(), m.WarmLatMs.SketchFingerprint(), m.MemWaitMs.SketchFingerprint(),
		m.ColdLatMs.Percentile(99.9), m.WarmLatMs.Percentile(99.9))
	if !m.ColdLatMs.Sketched() || m.ColdLatMs.N() == 0 {
		panic("streamRun: sketches not exercised; the invariance test would be vacuous")
	}
	return c.Fired(), table
}

// TestStreamShardInvariance is the streaming headline property: a
// diurnally modulated trace streamed straight from its generator
// cursors, with sketched latency samples, fingerprints byte-identically
// at every point of the host-order grid — and identically again when
// the same stream is first drained into a slice and replayed from it.
func TestStreamShardInvariance(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		wantFired, wantTable := streamRun(seed, nil, false)
		if wantFired == 0 {
			t.Fatalf("seed %d: degenerate run", seed)
		}
		for _, o := range hostOrders {
			gotFired, gotTable := streamRun(seed, o.hook(), false)
			if gotFired != wantFired || gotTable != wantTable {
				t.Fatalf("seed %d: %s host order diverges from host-ID order:\n%d %s\n%d %s",
					seed, o.name, gotFired, gotTable, wantFired, wantTable)
			}
		}
		gotFired, gotTable := streamRun(seed, reversedOrder, true)
		if gotFired != wantFired || gotTable != wantTable {
			t.Fatalf("seed %d: materialized replay diverges from streamed:\n%d %s\n%d %s",
				seed, gotFired, gotTable, wantFired, wantTable)
		}
	}
}

// TestSketchResetReplay: a sketched cluster reset in place must replay
// byte-identically to a fresh one (the world-pool recycling contract,
// extended to reservoir mode), and resetting back to an exact config
// must fully leave sketch mode.
func TestSketchResetReplay(t *testing.T) {
	cost := costmodel.Default()
	cfg := Config{
		Hosts: 3, HostMemBytes: 16 * units.GiB, Backend: faas.Squeezy,
		N: 4, KeepAlive: 20 * sim.Second,
		Sketch: &stats.SketchConfig{K: 128, Seed: 7},
	}
	replay := func(c *Cluster) (uint64, string) {
		c.Play(fleetStream(11, 6, 25*sim.Second, 4, 20), fleetFns(), PlayConfig{
			TickEvery: sim.Second, TickUntil: sim.Time(25 * sim.Second),
			DrainUntil: sim.Time(250 * sim.Second),
		})
		m := c.Stats()
		return c.Fired(), fmt.Sprintf("%s skfp=%x p999=%.6f",
			metricsTable(c), m.ColdLatMs.SketchFingerprint(), m.ColdLatMs.Percentile(99.9))
	}
	fresh := New(cost, cfg, NewPolicy("reclaim-aware", cost))
	wantFired, wantTable := replay(fresh)

	reused := New(cost, cfg, NewPolicy("reclaim-aware", cost))
	replay(reused) // dirty the pools with a full sketched run
	reused.Reset(cost, cfg, NewPolicy("reclaim-aware", cost))
	gotFired, gotTable := replay(reused)
	if gotFired != wantFired || gotTable != wantTable {
		t.Fatalf("sketched reset replay diverges:\n%d %s\n%d %s",
			gotFired, gotTable, wantFired, wantTable)
	}

	// Reset to an exact config: every sample must leave reservoir mode.
	exact := cfg
	exact.Sketch = nil
	reused.Reset(cost, exact, NewPolicy("reclaim-aware", cost))
	m := reused.Stats()
	if m.ColdLatMs.Sketched() || m.WarmLatMs.Sketched() || m.MemWaitMs.Sketched() {
		t.Fatal("reset to an exact config left samples in sketch mode")
	}
	for _, n := range reused.Nodes {
		if n.M.ColdLatMs.Sketched() {
			t.Fatal("reset to an exact config left a host sample in sketch mode")
		}
	}
}
