// Package faas models the OpenWhisk-based N:1 serverless runtime the
// paper integrates Squeezy into (§4.2, §6.2), plus the 1:1 microVM
// model it compares against (§6.3).
//
// One FuncVM is an N:1 VM: an in-guest Agent dispatches requests to
// warm (kept-alive) container instances, creates instances on demand
// (scale-up: memory plug + container spawn), and evicts instances whose
// keep-alive window expires (scale-down: container kill + memory
// unplug). A Runtime coordinates several FuncVMs against one host
// memory pool through a Broker; when the host runs out of memory,
// scale-ups queue and idle instances across all VMs are evicted to free
// memory (§6.2.2).
//
// Four memory backends implement the paper's comparison points: a
// statically over-provisioned VM (no elasticity, Figure 1), vanilla
// virtio-mem, Squeezy, and virtio-mem with the HarvestVM optimizations
// (proactive reclamation + slack buffering, [24]).
//
// # Pooling
//
// FuncVM construction is expensive relative to a short sweep cell —
// guest-kernel arenas, a vmm.VM with its cpu pools, agent maps and
// queues. A Recycler caches all three across runs: Runtime.AddVM
// draws from it and FuncVM.Release returns to it, with every
// observable field re-initialized on reuse so a recycled FuncVM is
// indistinguishable from a fresh one. One Recycler belongs to one
// goroutine, and every runtime that goroutine builds may share it: a
// world's kernel-direct cells and all the hosts of its fleet draw from
// one pool.
//
// The warm invocation path allocates nothing: request records come off
// a per-FuncVM free list (a Ticket carries the record's generation, so
// it cannot cancel a later request reusing the record), and each
// Instance binds its keep-alive expiry and warm-execution completion
// once.
package faas
