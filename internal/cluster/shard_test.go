package cluster

import (
	"sync"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/sim"
	"squeezy/internal/units"
)

// shardedRun plays one pressured fleet under the given shard count and
// Exec hook and returns the run's full fingerprint: total events fired
// plus the flattened metrics table.
func shardedRun(t *testing.T, backend faas.BackendKind, shards int, exec func([]func())) (uint64, string) {
	t.Helper()
	cost := costmodel.Default()
	c := NewSharded(cost, Config{
		Hosts: 3, HostMemBytes: 20 * units.GiB, Backend: backend,
		N: 4, KeepAlive: 20 * sim.Second,
	}, NewPolicy("reclaim-aware", cost))
	c.Exec = exec
	c.Play(fleetInvs(11, 8, 30*sim.Second, 6, 30), PlayConfig{
		Shards:    shards,
		TickEvery: sim.Second, TickUntil: sim.Time(30 * sim.Second),
		DrainUntil: sim.Time(300 * sim.Second),
	})
	return c.Fired(), metricsTable(c)
}

// TestShardCountInvariance is the core acceptance property of the
// epoch engine: the same fleet run under shard counts 1 (the serial
// unsharded path), 2, and hosts must fire the exact same events and
// produce byte-identical metrics tables.
func TestShardCountInvariance(t *testing.T) {
	for _, backend := range []faas.BackendKind{faas.VirtioMem, faas.Squeezy, faas.Harvest} {
		wantFired, wantTable := shardedRun(t, backend, 1, nil)
		if wantFired == 0 {
			t.Fatalf("%v: degenerate run", backend)
		}
		for _, shards := range []int{2, 3, 0 /* = hosts */} {
			gotFired, gotTable := shardedRun(t, backend, shards, nil)
			if gotFired != wantFired || gotTable != wantTable {
				t.Fatalf("%v: shards=%d diverges from unsharded:\n%d %s\n%d %s",
					backend, shards, gotFired, gotTable, wantFired, wantTable)
			}
		}
	}
}

// goExec advances shard tasks on real goroutines — the concurrency
// shape the experiments executor provides — so the race detector sees
// the exact parallel boundary production runs exercise.
func goExec(tasks []func()) {
	var wg sync.WaitGroup
	for _, task := range tasks {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			f()
		}(task)
	}
	wg.Wait()
}

// TestParallelShardsMatchSerial runs the drain's shard tasks truly
// concurrently and requires byte-identity with the serial path: the
// host partitioning and per-host metrics must make the schedule
// independent of real execution order.
func TestParallelShardsMatchSerial(t *testing.T) {
	wantFired, wantTable := shardedRun(t, faas.Squeezy, 1, nil)
	for _, shards := range []int{2, 3} {
		gotFired, gotTable := shardedRun(t, faas.Squeezy, shards, goExec)
		if gotFired != wantFired || gotTable != wantTable {
			t.Fatalf("parallel shards=%d diverges from serial:\n%d %s\n%d %s",
				shards, gotFired, gotTable, wantFired, wantTable)
		}
	}
}

// TestEpochsRunInline guards the engine's fan-out shape: epoch
// advances run inline on the dispatcher's goroutine and never reach the
// Exec hook, so a play hands Exec exactly one batch — its final drain,
// one task per shard. Counting through the hook must not change the
// run.
func TestEpochsRunInline(t *testing.T) {
	var batches, tasks int
	count := func(ts []func()) {
		batches++
		tasks += len(ts)
		for _, f := range ts {
			f()
		}
	}
	wantFired, wantTable := shardedRun(t, faas.Squeezy, 0, nil)
	gotFired, gotTable := shardedRun(t, faas.Squeezy, 0, count)
	if batches != 1 || tasks != 3 {
		t.Fatalf("Exec saw %d batches / %d tasks, want 1 drain batch of 3 shard tasks", batches, tasks)
	}
	if gotFired != wantFired || gotTable != wantTable {
		t.Fatalf("counting Exec diverges from nil Exec:\n%d %s\n%d %s",
			gotFired, gotTable, wantFired, wantTable)
	}
}

// TestPlayTickCadence pins the memory-sample schedule: ticks at 0,
// 1 s, ..., TickUntil inclusive, regardless of invocation timing.
func TestPlayTickCadence(t *testing.T) {
	cost := costmodel.Default()
	c := NewSharded(cost, Config{Hosts: 2, Backend: faas.Squeezy},
		NewPolicy("round-robin", cost))
	c.Play(fleetInvs(5, 4, 10*sim.Second, 2, 8), PlayConfig{
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

// TestShardWallsCoverShards checks the -cellstats plumbing: a sharded
// run reports one drain wall-clock accumulator per shard.
func TestShardWallsCoverShards(t *testing.T) {
	cost := costmodel.Default()
	c := NewSharded(cost, Config{Hosts: 4, Backend: faas.Squeezy},
		NewPolicy("round-robin", cost))
	c.Play(fleetInvs(5, 4, 5*sim.Second, 2, 8), PlayConfig{
		Shards: 2, DrainUntil: sim.Time(10 * sim.Second),
	})
	if len(c.ShardWalls()) != 2 {
		t.Fatalf("shard walls = %v, want 2 entries", c.ShardWalls())
	}
}
