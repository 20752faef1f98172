// Package fault injects deterministic gray failures into the fleet
// simulation: stalled and partial reclaim commands, cold-start boot
// failures, mid-execution crashes, and straggler hosts whose cost
// model is scaled for a window.
//
// A fault plan is a sorted list of Events, each opening a window
// [T, T+Dur) of one Kind on one host (or every host). The serial
// dispatcher applies window opens/closes at epoch boundaries; between
// boundaries each host consults its own Injector — host-local state
// plus a counter-mode decision stream seeded by (plan seed, host ID) —
// so every probabilistic draw depends only on the host's own event
// order. That makes plans invariant to host advance order and worker
// count by the same argument as the epoch engine itself: the fleet's
// tables and schedulers fingerprint byte-identically whatever order
// hosts advance in (TestFaultShardInvariance in internal/cluster).
//
// GenFaults fuzzes plans from a seed for the cluster determinism
// suites; Scenario builds the named profiles the cluster-resilience experiment
// and squeezyctl's -faults flag share.
package fault
