// Package experiments contains one driver per table and figure of the
// paper's evaluation (§6), plus ablations and the fleet-scale
// cluster-* sweeps. Each driver builds the full stack — host, VMM,
// guest kernel, reclamation interface, FaaS runtime, workload — runs
// the paper's protocol in virtual time, and returns the rows or series
// the paper plots. Every driver is a pure function of its seed.
//
// # Structure
//
// Drivers self-register into a package-level registry (registry.go)
// from init(), so the CLI, benchmarks, and determinism tests all
// enumerate one source of truth. A driver exposes its work as a cell
// plan (plan.go): independent simulation cells plus an Assemble step,
// optionally chained into data-dependent stages. The unified executor
// (runner.go) flattens experiments × trials × stages onto one worker
// pool; each worker owns a pooled World (world.go) whose scheduler,
// arena caches, recycled VMs, and fleet are reset — not rebuilt —
// between cells.
//
// A cell runs start to finish on the worker that popped it; a fleet
// cell advances its hosts inline, one tiny epoch per dispatcher
// boundary, and drains them to the horizon the same way. A full run's
// wall-clock floor is therefore its slowest cell or its summed cell
// wall spread over the workers, whichever is larger (ParallelFloor).
//
// # Determinism
//
// Workers write only pre-assigned result slots, per-trial and per-cell
// seeds derive through SubSeed (splitmix64), pooled worlds reset to
// fresh-equivalent state, and reports carry no timing fields — so
// output is byte-identical across worker counts and serial/parallel
// execution, which the determinism tests assert for every registered
// experiment.
//
// EXPERIMENTS.md records paper-reported vs measured values for each
// driver.
package experiments
