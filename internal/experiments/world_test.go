package experiments

import (
	"testing"

	"squeezy/internal/faas"
	"squeezy/internal/sim"
	"squeezy/internal/units"
)

// TestFleetShardsOnPooledWorld re-runs the same cell on a dirty pooled
// world and requires identity with a fresh world — the reset-vs-fresh
// guard for the fleet's per-host schedulers and recyclers.
func TestFleetShardsOnPooledWorld(t *testing.T) {
	fc := fleetCfg{
		policy: "headroom", backend: faas.Squeezy,
		hosts: 2, hostMem: 16 * units.GiB,
		funcs: 8, duration: 30 * sim.Second, baseRPS: 4, burstRPS: 20,
	}
	want := fleetRun(newWorld(), 4, fc)

	w := newWorld()
	dirty := fc
	dirty.backend, dirty.hosts, dirty.policy = faas.Harvest, 4, "round-robin"
	w.begin()
	fleetRun(w, 99, dirty) // pollute the pools with a different shape
	w.endCell()
	w.begin()
	got := fleetRun(w, 4, fc)
	w.endCell()
	if got != want {
		t.Fatalf("pooled fleet run diverges from fresh:\n%+v\n%+v", got, want)
	}
}

// TestWorkersForBudget pins the -parallel 0 capping rule.
func TestWorkersForBudget(t *testing.T) {
	cases := []struct {
		procs  int
		budget int64
		want   int
	}{
		{8, 0, 8},                           // no budget: uncapped
		{8, 16 * WorldMemEstimateBytes, 8},  // roomy: uncapped
		{8, 3 * WorldMemEstimateBytes, 3},   // tight: capped below procs
		{8, WorldMemEstimateBytes / 2, 1},   // tiny: never below one
		{1, 64 * WorldMemEstimateBytes, 1},  // single core stays single
		{0, 2 * WorldMemEstimateBytes, 1},   // degenerate procs
		{4, 4*WorldMemEstimateBytes + 1, 4}, // exact fit counts
		{4, 4*WorldMemEstimateBytes - 1, 3}, // just under drops one
	}
	for _, c := range cases {
		if got := workersForBudget(c.procs, c.budget); got != c.want {
			t.Fatalf("workersForBudget(%d, %d) = %d, want %d", c.procs, c.budget, got, c.want)
		}
	}
	if AutoWorkers(0) < 1 {
		t.Fatal("AutoWorkers must return at least one worker")
	}
}
