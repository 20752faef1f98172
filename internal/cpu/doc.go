// Package cpu models a pool of identical (v)CPUs shared by concurrent
// jobs under weighted processor sharing.
//
// Function executions, kernel reclaim threads (balloon, virtio-mem,
// Squeezy) and VMM threads are all jobs: each carries an amount of CPU
// work (in CPU-nanoseconds), a weight (its CPU shares, Table 1 of the
// paper) and a cap (the most cores it can occupy, 1.0 for a
// single-threaded kernel thread). The pool divides capacity by
// water-filling: capacity is split proportionally to weight, jobs that
// would exceed their cap are pinned at the cap, and the slack is
// redistributed. This reproduces the interference the paper measures in
// Figures 7 and 9 — a virtio-mem migration thread stealing cycles from
// co-located function instances — without a cycle-accurate scheduler.
//
// Job records live in a per-pool slab and are recycled as jobs finish;
// Submit returns a small generation-checked Job handle, in the manner
// of sim.Event, so submitting work allocates nothing once the slab has
// grown to the pool's peak concurrency.
package cpu
