package balloon

import (
	"squeezy/internal/guestos"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

// CPU accounting classes.
const (
	GuestClass = "balloon"
	HostClass  = "balloon-vmm"
)

// InflateResult reports one inflation request.
type InflateResult struct {
	RequestedBytes int64
	ReclaimedBytes int64 // guest pages reserved and reported
	ReleasedPages  int64 // host frames actually freed (populated ones)
	Breakdown      *stats.Breakdown
	Latency        sim.Duration
}

// FaultHooks degrades the balloon for fault-injection windows: a
// non-zero ReclaimStall turns inflation slow (the completion is
// delayed while the device stays busy), and a ReclaimFraction below 1
// caps how much of a request is attempted.
type FaultHooks interface {
	ReclaimStall() sim.Duration
	ReclaimFraction() float64
}

// Driver is the guest balloon driver of one VM.
type Driver struct {
	K *guestos.Kernel

	// Obs, when non-nil, records a span per inflation and an instant per
	// deflation; recording never alters the operation.
	Obs *obs.Recorder

	// Faults, when non-nil, injects slow and partial inflations.
	Faults FaultHooks

	proc    *guestos.Process // owns the reserved pages
	busy    bool
	pending []func()
	// reserved is Inflate's AllocReserved buffer, reused across
	// inflations.
	reserved []guestos.ChunkID
}

// New creates a balloon driver for the kernel.
func New(k *guestos.Kernel) *Driver {
	return &Driver{K: k, proc: k.Spawn("balloon")}
}

// HeldPages returns the pages currently held by the balloon.
func (d *Driver) HeldPages() int64 { return d.proc.AnonPages() }

func (d *Driver) enqueue(fn func()) {
	if d.busy {
		d.pending = append(d.pending, fn)
		return
	}
	d.busy = true
	fn()
}

func (d *Driver) finish() {
	if len(d.pending) > 0 {
		next := d.pending[0]
		d.pending = d.pending[1:]
		next()
		return
	}
	d.busy = false
}

// Inflate reserves bytes of free guest memory and releases the backing
// host frames. When free guest memory runs short the balloon reclaims
// less than asked (it cannot migrate). onDone fires when the last page
// has been reported and released.
func (d *Driver) Inflate(bytes int64, onDone func(InflateResult)) {
	d.enqueue(func() {
		vm := d.K.VM
		want := units.BytesToPages(bytes)
		if d.Faults != nil {
			if f := d.Faults.ReclaimFraction(); f < 1 {
				want = int64(float64(want) * f)
			}
		}
		var got int64
		d.reserved, got = d.K.AllocReserved(d.reserved[:0], d.proc, want)

		// The host releases whichever of the reserved pages were
		// populated (madvise(MADV_DONTNEED) per reported page).
		var released int64
		for _, c := range d.reserved {
			released += d.K.ReleaseChunkFrames(c)
		}

		steps := []vmm.Step{
			{Pool: vm.GuestReclaimPool(), Work: sim.Duration(got) * vm.Cost.BalloonGuestPerPage, Class: GuestClass, Label: vmm.StepRest, Weight: vmm.KthreadWeight},
			{Pool: vm.HostThreads, Work: sim.Duration(got) * vm.Cost.VMExitPerPage, Class: HostClass, Label: vmm.StepVMExits},
		}
		vm.CountExit("balloon-inflate", got)
		start := vm.Sched.Now()
		vmm.RunChain(vm.Sched, steps, func(bd *stats.Breakdown, total sim.Duration) {
			deliver := func() {
				res := InflateResult{
					RequestedBytes: bytes,
					ReclaimedBytes: units.PagesToBytes(got),
					ReleasedPages:  released,
					Breakdown:      bd,
					Latency:        total,
				}
				if d.Obs != nil {
					d.Obs.Span("balloon/inflate", obs.CatMemory, start,
						obs.I("requested_bytes", res.RequestedBytes),
						obs.I("reclaimed_bytes", res.ReclaimedBytes),
						obs.I("released_pages", res.ReleasedPages))
				}
				d.finish()
				onDone(res)
			}
			if d.Faults != nil {
				// Slow inflation: the completion stalls while the device
				// stays busy, so queued commands wait behind it.
				if stall := d.Faults.ReclaimStall(); stall > 0 {
					vm.Sched.After(stall, deliver)
					return
				}
			}
			deliver()
		})
	})
}

// Deflate returns bytes of ballooned memory to the guest. The freed
// pages are unbacked in the host until next touch.
func (d *Driver) Deflate(bytes int64) int64 {
	freed := d.K.FreeAnon(d.proc, bytes)
	if d.Obs != nil {
		d.Obs.Instant("balloon/deflate", obs.CatMemory, obs.I("freed_bytes", freed))
	}
	return freed
}
