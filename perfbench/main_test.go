package main

import (
	"testing"
	"time"

	"squeezy/internal/experiments"
)

func TestFirstCellStart(t *testing.T) {
	call := time.Unix(100, 0)
	ms := time.Millisecond
	stats := []experiments.CellStat{
		{Start: 5 * ms, Wall: 40 * ms},
		{Start: 3 * ms, Wall: 10 * ms},
		{Start: 20 * ms, Wall: 50 * ms}, // last to end, at batch+70ms
	}
	// The call returned 80ms after it began; the last cell ended at
	// batch+70ms, so the batch began 10ms in and the first cell 13ms in.
	if got, want := firstCellStart(call, call.Add(80*ms), stats), call.Add(13*ms); !got.Equal(want) {
		t.Errorf("first cell at %v, want %v", got.Sub(call), want.Sub(call))
	}
	// A batch start recovered before the call is clamped to the call.
	if got, want := firstCellStart(call, call.Add(60*ms), stats), call.Add(3*ms); !got.Equal(want) {
		t.Errorf("clamped first cell at %v, want %v", got.Sub(call), want.Sub(call))
	}
}

func TestFillCells(t *testing.T) {
	ms := time.Millisecond
	var res result
	res.fillCells([]experiments.CellStat{
		{Wall: 100 * ms, Wait: 1 * ms},
		{Wall: 90 * ms, Wait: 2 * ms, ShardWalls: []time.Duration{30 * ms, 10 * ms}},
	})
	near := func(name string, got, want float64) {
		t.Helper()
		if d := got - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if res.Cells != 2 {
		t.Errorf("cells = %d, want 2", res.Cells)
	}
	near("cell_wall_s", res.CellWallS, 0.19)
	near("cell_wait_s", res.CellWaitS, 0.003)
	near("floor_model_s", res.FloorModelS, 0.1) // plain cell's 100ms beats 90-40+30
	near("serial_wall_s", res.SerialWallS, 0.05)
	near("shard_wall_s", res.ShardWallS, 0.04)
	near("slowest_shard_s", res.SlowestShardS, 0.03)
	near("mean_shard_s", res.MeanShardS, 0.02)
}

func TestSumColumn(t *testing.T) {
	tab := &experiments.Table{
		Header: []string{"backend", "invocations", "cold"},
		Rows:   [][]string{{"squeezy", "10", "2"}, {"virtio-mem", "5", "n/a"}},
	}
	if got := sumColumn(tab, "invocations"); got != 15 {
		t.Errorf("invocations = %d, want 15", got)
	}
	if got := sumColumn(tab, "cold"); got != 2 {
		t.Errorf("cold = %d, want 2 (non-integer cells skipped)", got)
	}
	if got := sumColumn(tab, "retries"); got != 0 {
		t.Errorf("missing column = %d, want 0", got)
	}
}

func TestWorkloadsRegistered(t *testing.T) {
	for name, wl := range workloads {
		for _, n := range wl.names {
			if _, ok := experiments.Get(n); !ok {
				t.Errorf("workload %s names unknown experiment %q", name, n)
			}
		}
	}
}
