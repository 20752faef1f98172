// Package cluster scales the single-host simulation out to a fleet —
// and, since PR 5, executes that fleet as per-host sub-simulations
// merged deterministically at dispatcher epochs.
//
// A Cluster is N simulated hosts, each with its own
// sim.Scheduler, hostmem.Host, faas.Runtime, reclamation backend, and
// memory broker, all building VMs from one faas.Recycler, fronted by a
// dispatcher that routes
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
// acts at known times: trace invocations and the timed work in its
// boundary queue (boundary.go) — fleet events, fault windows,
// resilience decisions, pacing ticks and fleet-wide memory samples.
// The epoch engine (epoch.go) exploits this: it advances every host to
// the next boundary with sim.Scheduler.RunUntilEpoch (events strictly
// before the boundary fire, clocks land exactly on it), runs the
// boundary's dispatcher work serially in canonical order — queued
// fleet events, fault windows, resilience decisions and pacing, then
// invocations in trace order, then the memory sample — and repeats;
// after the last boundary every live host drains to the horizon.
// Epochs are tiny (a boundary at every invocation), so the whole run
// stays on the caller's goroutine: hosts advance inline in host-ID
// order. Completion metrics accumulate per host and merge in
// host-ID order.
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
// frozen rather than cancelled; its in-flight work re-places through
// the normal dispatcher exactly once.
//
// # One in-flight record
//
// Every dispatch, plain or resilient, is one flight (the invocation)
// and one attempt per placement of it, tracked on the serving host's
// attempts list; re-placement, pacing and shedding have one path each.
// Plain dispatch is the resilience layer with nothing armed, and the
// only fork is where a completion resolves: with resilience off on the
// host at once, the flight recycled through that host's free list (so
// a plain dispatch allocates nothing); with resilience on at the next
// boundary. The pool is per host because completions retire flights
// while their host advances, which must touch host-local state only.
//
// # Determinism
//
// The dispatcher holds no RNG, iterates hosts in slice order, and
// breaks every tie by host ID; a host's evolution between boundaries
// is a pure function of its state at the last boundary; and nothing
// depends on the order hosts advance in. A fleet run is therefore a
// pure function of its traces, its fleet-event schedule, and its seed
// — the property TestShardCountInvariance and, under fuzzed churn,
// faults, domains, autoscaling and streaming, its sibling suites pin
// down by replaying each run with hosts advancing in reversed and
// per-epoch shuffled order and requiring identical events, tables and
// traces.
package cluster
