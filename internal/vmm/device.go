package vmm

import (
	"squeezy/internal/sim"
	"squeezy/internal/stats"
)

// FaultHooks degrades a memory device for fault-injection windows: a
// non-zero ReclaimStall delays the completion of every command (plug,
// unplug or inflate) while the command keeps the device busy, and a
// ReclaimFraction below 1 caps how much of a reclaim request is
// attempted.
type FaultHooks interface {
	ReclaimStall() sim.Duration
	ReclaimFraction() float64
}

// ReclaimResult reports what one reclaim command (an unplug or a
// balloon inflation) achieved.
type ReclaimResult struct {
	// RequestedBytes is the request as issued, even when a fault window
	// cuts how much of it the command attempts.
	RequestedBytes int64
	ReclaimedBytes int64
	// MigratedPages and ZeroedPages are the pages the guest moved and
	// zeroed to empty the reclaimed memory (virtio-mem only).
	MigratedPages int64
	ZeroedPages   int64
	// ReleasedPages is the host frames actually freed: only populated
	// pages hold one.
	ReleasedPages int64
	// Breakdown is the wall-time split (milliseconds) across the
	// Figure 5 buckets: zeroing, migration, vmexits, rest.
	Breakdown *stats.Breakdown
	// Latency is the wall time of the command's steps; an injected
	// stall is not part of it.
	Latency sim.Duration
}

// Device is the command queue of one paravirtual memory device. The
// device runs one command at a time, in submission order: a command
// holds the device from Submit running it until it calls Finish. Each
// driver embeds its own Device, so two drivers of one VM never
// serialize against each other.
type Device struct {
	// Faults, when non-nil, injects stalled and partial commands.
	Faults FaultHooks

	busy    bool
	pending []func()
}

// Submit runs cmd now if the device is idle, else after the commands
// ahead of it finish. cmd must end, synchronously or later, with one
// Finish.
func (d *Device) Submit(cmd func()) {
	if d.busy {
		d.pending = append(d.pending, cmd)
		return
	}
	d.busy = true
	cmd()
}

// Finish ends the running command and starts the next queued one.
func (d *Device) Finish() {
	if len(d.pending) > 0 {
		next := d.pending[0]
		d.pending = d.pending[1:]
		next()
		return
	}
	d.busy = false
}

// Fraction reports the share of a reclaim request the running command
// may attempt: the fault window's ReclaimFraction, capped at 1, or 1
// outside a window. Commands read it when they start.
func (d *Device) Fraction() float64 {
	if d.Faults == nil {
		return 1
	}
	return min(d.Faults.ReclaimFraction(), 1)
}

// Run executes the running command's steps (RunChain) and then calls
// done with their breakdown and wall time, after the injected stall if
// a fault window imposes one. The stall happens inside the busy
// window, so queued commands wait behind it and the runtime's
// ReclaimDrainTimeout can fire.
func (d *Device) Run(sched *sim.Scheduler, steps []Step, done func(*stats.Breakdown, sim.Duration)) {
	RunChain(sched, steps, func(bd *stats.Breakdown, total sim.Duration) {
		if d.Faults != nil {
			if stall := d.Faults.ReclaimStall(); stall > 0 {
				sched.After(stall, func() { done(bd, total) })
				return
			}
		}
		done(bd, total)
	})
}
