// Package cluster scales the single-host simulation out to a fleet —
// and, since PR 5, executes that fleet as per-host sub-simulations
// merged deterministically at dispatcher epochs.
//
// A ShardedCluster is N simulated hosts, each with its own
// sim.Scheduler, hostmem.Host, faas.Runtime, reclamation backend,
// memory broker, and recycler, fronted by a dispatcher that routes
// invocations and places cold scale-ups through a pluggable Policy.
// The split mirrors real FaaS-on-hypervisor stacks (a cluster-facing
// gateway over per-host runtimes): host-local mechanisms decide *how*
// memory is reclaimed, the cluster policy decides *which* host pays
// plug latency — and, under memory pressure, whose backend pays the
// unplug latency the paper measures. That interaction is exactly what
// the cluster-* experiments sweep.
//
// # Execution model
//
// Hosts interact only through the dispatcher, and the dispatcher only
// acts at known times: trace invocations and fleet-wide memory
// samples. The epoch engine (shard.go) exploits this: it advances
// every host to the next boundary with sim.Scheduler.RunUntilEpoch
// (events strictly before the boundary fire, clocks land exactly on
// it), runs the boundary's dispatcher work serially in canonical
// order — invocations in trace order, then the memory sample — and
// repeats. Epochs are tiny (a boundary at every invocation), so hosts
// advance inline on the dispatcher's goroutine in host-ID order. Only
// the final drain fans out: after the last boundary the live hosts
// split into shards that run to the horizon as independent tasks,
// concurrently when an Exec hook is installed. Completion metrics
// accumulate per host and merge in host-ID order.
//
// # Fleet dynamics
//
// Since PR 6 the fleet's shape is itself simulated (fleetdyn.go):
// FleetEvents make hosts join, fail, or drain mid-trace, and an
// optional autoscaler turns aggregate memory pressure into delayed
// joins and drains. Node sets are layered active ⊆ live ⊆ Nodes —
// only active hosts take placements, only live hosts advance — and
// every shape change happens at an epoch boundary with all hosts
// paused, in canonical order (settle drains, fleet events, then the
// boundary's dispatcher work). A failed host's scheduler is simply
// never advanced again, so its pending completions and grants are
// frozen rather than cancelled; its in-flight work (tracked as
// flights) re-places through the normal dispatcher exactly once.
// Flight records are recycled through the serving host's free list and
// are their own completion target, so a plain dispatch allocates
// nothing; the pool is per host because completions retire flights on
// whichever worker advances that host.
//
// # Determinism
//
// The dispatcher holds no RNG, iterates hosts in slice order, and
// breaks every tie by host ID; a host's evolution between boundaries
// is a pure function of its state at the last boundary; and nothing
// depends on the drain's shard partition or on which worker drained
// which host. A fleet run is therefore a pure function of its traces, its
// fleet-event schedule, and its seed, byte-identical at every shard
// count — the property TestShardCountInvariance,
// TestParallelShardsMatchSerial, and (under fuzzed churn)
// TestChurnShardInvariance pin down.
package cluster
