package cluster

import (
	"time"

	"squeezy/internal/fault"
	"squeezy/internal/sim"
	"squeezy/internal/workload"
)

// The epoch engine: a fleet run is executed as per-host
// sub-simulations that rendezvous at every dispatcher boundary.
//
// Hosts in a fleet interact only through the dispatcher — warm
// routing, scale-up placement, admission — and the dispatcher only
// acts at known times: the invocation timestamps of the trace and the
// fleet-wide memory-sample ticks. Those times are the epochs. The
// engine repeats three steps:
//
//  1. advance: every host's scheduler runs to the next boundary T with
//     sim.Scheduler.RunUntilEpoch — all host events strictly before T
//     fire, host clocks land exactly on T. Hosts advance inline on the
//     dispatcher's goroutine in host-ID order: a boundary falls at
//     every invocation, so an epoch carries a few microseconds of host
//     work — most have a host event on one host or none — and waking
//     another worker for it would cost more than the work itself.
//  2. merge: with every host paused at T, the dispatcher fires the
//     boundary events at T in canonical order — invocations in trace
//     order first, then the memory sample. Routing reads host state
//     settled through T-1 plus the synchronous effects of earlier
//     boundary events at T, identically at every shard count.
//  3. repeat, until the trace and ticks are exhausted; then every host
//     drains independently to the horizon. The drain is the one
//     stretch where hosts run without rendezvous, so it alone fans
//     out: the live hosts split into shards that run as independent
//     tasks, concurrently when an Exec hook is installed (disjoint
//     hosts, so any interleaving is equivalent).
//
// Determinism argument: a host's event stream between boundaries is a
// pure function of its state at the last boundary (host-local events
// only, host-local seeds only); the dispatcher step is serial and
// iterates hosts in ID order; completion metrics accumulate host-
// locally and merge in host-ID order. Nothing anywhere depends on the
// drain's shard partition or on which worker drained which host — so
// tables are byte-identical at every shard count and worker count.

// Invocation is one dispatcher boundary event: fn arrives at T.
type Invocation struct {
	T  sim.Time
	Fn *workload.Function
}

// PlayConfig shapes one epoch-driven fleet run.
type PlayConfig struct {
	// Shards is the number of host partitions the final drain runs as
	// independent tasks; 0 or anything >= the live host count means one
	// shard per host, 1 means a serial drain. Epoch advances always run
	// inline. The shard count never changes results, only how much of
	// the fleet a single drain task covers.
	Shards int
	// TickEvery is the fleet memory-sampling cadence (0 disables);
	// samples are taken at 0, TickEvery, ... through TickUntil.
	TickEvery sim.Duration
	TickUntil sim.Time
	// DrainUntil is the horizon every host runs to after the last
	// boundary, so slow requests finish and their latencies count.
	DrainUntil sim.Time
	// Events is the churn schedule: fleet-shape changes fired at epoch
	// boundaries on simulated time (fleetdyn.go). Events need not be
	// sorted; same-time events fire in the given order. Events past
	// DrainUntil never fire.
	Events []FleetEvent
	// Autoscale, when non-nil, drives host count from aggregate memory
	// pressure, evaluated after each memory sample — so autoscaling
	// requires TickEvery > 0.
	Autoscale *AutoscaleConfig
	// Faults is the fault plan: injection windows opened and closed at
	// epoch boundaries (faults.go). FaultSeed seeds every host's
	// probabilistic decision stream; with an empty plan the run is
	// byte-identical to a fault-free one.
	Faults    []fault.Event
	FaultSeed uint64
}

// Play replays a time-sorted invocation slice through the dispatcher
// under the epoch protocol described above. It leaves every host at
// DrainUntil and the merged fleet metrics ready in Stats(). Play is a
// thin wrapper over PlayStream (stream.go), which accepts a streaming
// source and bounds memory independently of invocation count.
func (c *ShardedCluster) Play(invs []Invocation, pc PlayConfig) {
	c.PlayStream(SliceStream(invs), pc)
}

// AdvanceTo advances every host to the epoch boundary t: all host
// events strictly before t fire, every host clock — and the dispatcher
// clock — lands exactly on t. The dispatcher may then route
// invocations or sample memory against the paused fleet. Hosts advance
// inline in host-ID order: an epoch is a few microseconds of host
// work, less than handing it to another worker would cost.
func (c *ShardedCluster) AdvanceTo(t sim.Time) {
	for _, n := range c.live {
		n.Sched.RunUntilEpoch(t)
	}
	c.now = t
}

// Drain runs every host through t inclusive — unlike AdvanceTo, events
// at exactly t fire too — and sets the dispatcher clock to t. The
// final drain of a run is the one stretch where hosts no longer
// interact, so it is the only fan-out: the live hosts split into
// contiguous shards (PlayConfig.Shards) that run to the horizon as
// independent tasks through the Exec hook, each timing its own wall.
func (c *ShardedCluster) Drain(t sim.Time) {
	if t < c.now {
		t = c.now
	}
	shards := c.shardsWanted
	if shards <= 0 || shards > len(c.live) {
		shards = len(c.live)
	}
	if len(c.shardWalls) < shards {
		c.shardWalls = append(c.shardWalls, make([]time.Duration, shards-len(c.shardWalls))...)
	}
	tasks := make([]func(), shards)
	for s := range tasks {
		grp := c.live[s*len(c.live)/shards : (s+1)*len(c.live)/shards]
		tasks[s] = func() {
			start := time.Now()
			for _, n := range grp {
				n.Sched.RunUntil(t)
			}
			c.shardWalls[s] += time.Since(start)
		}
	}
	if c.Exec != nil && len(tasks) > 1 {
		c.Exec(tasks)
	} else {
		for _, task := range tasks {
			task()
		}
	}
	c.now = t
}

// ShardWalls returns the wall-clock time each shard of the final drain
// consumed during the run — the numbers behind `squeezyctl
// -cellstats`'s per-shard breakdown. Epoch advances run inline on the
// cell's own goroutine and are not included.
func (c *ShardedCluster) ShardWalls() []time.Duration { return c.shardWalls }
