package costmodel

import "squeezy/internal/sim"

// ReclaimDrainTimeout is the conservative upper bound the runtime
// places on one round of pressure-driven reclamation: after this long,
// the memory either arrived (and the broker granted its waiters) or the
// unplug stalled and pressure must be raised again. It backstops the
// broker's partial-pump re-raise; neither mechanism alone covers both
// the "unplug never completes" and the "unplug completed but freed too
// little" cases (§6.2.2).
const ReclaimDrainTimeout = 5 * sim.Second

// Dispatcher-resilience constants (internal/cluster). They are fleet
// policy, not host mechanics, but live here with the other calibrated
// time constants so experiments ablate them in one place.
const (
	// DispatchTimeout is the per-attempt deadline of a routed
	// invocation: past it the dispatcher races a fresh attempt on
	// another host (the original keeps running and may still win). It is
	// a gray-failure detector, not a congestion manager, so it sits
	// above the pressured fleet's worst *healthy* tail — the post-burst
	// backlog reaches ~40 s (EXPERIMENTS.md) — and well below the
	// injected-degradation tails (hundreds of seconds). A timeout below
	// the healthy tail triggers speculative re-dispatch of merely-queued
	// work, and the extra load feeds back into more timeouts: a classic
	// retry storm.
	DispatchTimeout = 60 * sim.Second
	// RetryBackoffBase and RetryBackoffCap bound the capped exponential
	// backoff between dispatch retries: retry k waits
	// min(Base << k, Cap) after the failure that triggered it.
	RetryBackoffBase = 250 * sim.Millisecond
	RetryBackoffCap  = 4 * sim.Second
	// DispatchMaxRetries bounds re-dispatch attempts per invocation
	// (the primary attempt is not a retry).
	DispatchMaxRetries = 3
	// HedgeDelay is how long the dispatcher waits on the primary
	// attempt before hedging a second host (when hedging is enabled) —
	// just above the fleet's steady-state cold P99 (~5-7.6 s), so only
	// genuine tail requests hedge, and early enough that a hedge still
	// beats a brown-out host's ~30x-slowed boot. Hedges are further gated
	// on the target serving without queueing (a warm instance, or
	// memory headroom covering the new instance): a hedge into a
	// backlog or a memory-starved spawn would amplify exactly the
	// congestion it is meant to dodge.
	HedgeDelay = 8 * sim.Second
)

// Load-shedding thresholds (internal/cluster): an invocation of
// priority p is shed when the fleet's demand overload — broker-queued
// (demanded-but-unmet) pages as a fraction of total memory — exceeds
// ShedBase + p*ShedStep. The signal is deliberately not
// committed/capacity: an elastic fleet sits full of reclaimable
// keep-alive pools by design, so committed memory reads ~1.0 even
// idle, while the unmet queue is ~0 healthy (mean ~0.35 through
// bursts at the experiments' scale) and >1.0 when reclaim degrades.
// The lowest priority sheds once a burst outruns reclaim; the highest
// holds until the backlog alone covers the whole fleet's memory.
const (
	ShedBase = 0.5
	ShedStep = 0.25
)

// Recovery-storm pacing defaults (internal/cluster/repace.go): after a
// correlated failure, displaced in-flight work re-dispatches at most
// RepacePerTick invocations per pacing tick, one tick every
// RepaceEvery. The product (16 re-dispatches/s) sits just above the
// full-scale experiments' steady arrival rate per surviving host, so a
// rack's worth of displaced work spreads over a few seconds of
// boundaries instead of landing on the survivors in one instant.
const (
	RepacePerTick = 4
	RepaceEvery   = 250 * sim.Millisecond
)

// Model holds every tunable cost constant. Experiments copy and tweak a
// Model for ablations; the zero value is unusable — start from Default.
type Model struct {
	// --- Guest page-level costs ---

	// GuestFaultPerPage is the guest-side cost of handling one minor
	// page fault (allocate + map one 4 KiB page), excluding zeroing.
	GuestFaultPerPage sim.Duration
	// ZeroPerPage is the cost of zeroing one 4 KiB page
	// (CONFIG_INIT_ON_ALLOC_DEFAULT_ON hardening).
	ZeroPerPage sim.Duration
	// MigratePerPage is the cost of migrating one occupied 4 KiB page
	// during offlining: target allocation, copy, rmap and PTE rewrite,
	// TLB shootdown.
	MigratePerPage sim.Duration

	// --- Guest block-level hot(un)plug costs ---

	// OnlineMetaPerBlock is the guest cost of hot-adding and onlining
	// one 128 MiB block (memmap init, zone/freelist insertion).
	OnlineMetaPerBlock sim.Duration
	// OfflineMetaPerBlockVanilla is the guest metadata cost of
	// offlining and hot-removing one block on the vanilla path
	// (per-page isolation scans, memmap teardown).
	OfflineMetaPerBlockVanilla sim.Duration
	// OfflineMetaPerBlockSqueezy is the same cost on the Squeezy path,
	// where the partition is known empty and per-page scans vanish.
	OfflineMetaPerBlockSqueezy sim.Duration

	// --- Host / VMM costs ---

	// VMExitPerBlock is the host-side cost of servicing one virtio-mem
	// (un)plug response for a 128 MiB block, including the
	// madvise(MADV_DONTNEED) release.
	VMExitPerBlock sim.Duration
	// VMExitPerPage is the host-side cost of one balloon-inflation VM
	// exit (ballooning reports reclaimed memory a page at a time).
	VMExitPerPage sim.Duration
	// BalloonGuestPerPage is the guest balloon driver's cost to reserve
	// and report one page.
	BalloonGuestPerPage sim.Duration
	// PlugHostFixed is the fixed host-side cost of one plug request
	// (device negotiation, VMM bookkeeping).
	PlugHostFixed sim.Duration
	// NestedFaultPerPage is the cost of the first guest touch of a
	// freshly plugged (host-unbacked) 4 KiB page: EPT violation exit,
	// host allocation, EPT map.
	NestedFaultPerPage sim.Duration

	// --- VM lifecycle ---

	// MicroVMBoot is the 1:1-model cost of booting a fresh microVM
	// (VMM setup, guest kernel boot, in-guest agent start).
	MicroVMBoot sim.Duration

	// --- Policy knobs (ablations) ---

	// ZeroOnUnplug controls whether the vanilla offline path zeroes the
	// pages it isolates and the migration targets it allocates, as a
	// hardened kernel does. Squeezy's allocator is hot(un)plug-aware
	// and always skips this. Figure 6 disables it for vanilla too.
	ZeroOnUnplug bool
	// BatchUnplugExits merges the per-block VM exits of one unplug
	// request into a single exit (the batching optimization §8 leaves
	// as future work; implemented here as an ablation).
	BatchUnplugExits bool
}

// Default returns the calibrated model.
func Default() *Model {
	return &Model{
		GuestFaultPerPage: 600 * sim.Nanosecond,
		ZeroPerPage:       1100 * sim.Nanosecond,
		MigratePerPage:    4 * sim.Microsecond,

		OnlineMetaPerBlock:         1700 * sim.Microsecond,
		OfflineMetaPerBlockVanilla: 19 * sim.Millisecond,
		OfflineMetaPerBlockSqueezy: 4900 * sim.Microsecond,

		VMExitPerBlock:      3 * sim.Millisecond,
		VMExitPerPage:       8900 * sim.Nanosecond,
		BalloonGuestPerPage: 2100 * sim.Nanosecond,
		PlugHostFixed:       25 * sim.Millisecond,
		NestedFaultPerPage:  1500 * sim.Nanosecond,

		MicroVMBoot: 700 * sim.Millisecond,

		ZeroOnUnplug:     true,
		BatchUnplugExits: false,
	}
}

// Scaled returns a copy of the model with every duration multiplied by
// f (policy booleans unchanged). The fault injector uses it to turn a
// host into a straggler for a window: the same protocol, uniformly
// slower hardware.
func (m *Model) Scaled(f float64) *Model {
	s := func(d sim.Duration) sim.Duration { return sim.Duration(float64(d) * f) }
	c := *m
	c.GuestFaultPerPage = s(m.GuestFaultPerPage)
	c.ZeroPerPage = s(m.ZeroPerPage)
	c.MigratePerPage = s(m.MigratePerPage)
	c.OnlineMetaPerBlock = s(m.OnlineMetaPerBlock)
	c.OfflineMetaPerBlockVanilla = s(m.OfflineMetaPerBlockVanilla)
	c.OfflineMetaPerBlockSqueezy = s(m.OfflineMetaPerBlockSqueezy)
	c.VMExitPerBlock = s(m.VMExitPerBlock)
	c.VMExitPerPage = s(m.VMExitPerPage)
	c.BalloonGuestPerPage = s(m.BalloonGuestPerPage)
	c.PlugHostFixed = s(m.PlugHostFixed)
	c.NestedFaultPerPage = s(m.NestedFaultPerPage)
	c.MicroVMBoot = s(m.MicroVMBoot)
	return &c
}
