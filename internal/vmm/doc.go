// Package vmm models the virtual machine monitor side of a VM: its vCPU
// pool, the host-side device threads, VM-exit accounting, and the
// population state of guest memory in the host (EPT).
//
// It also provides the RunChain helper that reclamation interfaces use
// to express a hot(un)plug operation as a sequence of CPU-work steps
// spread across guest and host thread pools — the measured wall-clock
// time of each step yields the zeroing/migration/VM-exit/rest latency
// breakdown of Figure 5 for free, including any inflation caused by CPU
// contention (Figure 9).
//
// Device is the command path those interfaces share: Squeezy, virtio-mem
// and the balloon each embed one, so each runs one command at a time in
// submission order, degraded by one FaultHooks (a stall inside the busy
// window, a fraction of each reclaim request), and reports a
// ReclaimResult.
package vmm
