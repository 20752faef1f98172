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

// Driver is the guest balloon driver of one VM. Its inflations queue
// on one device (vmm.Device), which also carries the fault hooks;
// deflation is immediate and bypasses the queue.
type Driver struct {
	vmm.Device

	K *guestos.Kernel

	// Obs, when non-nil, records a span per inflation and an instant per
	// deflation; recording never alters the operation.
	Obs *obs.Recorder

	proc *guestos.Process // owns the reserved pages
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

// Inflate reserves bytes of free guest memory and releases the backing
// host frames. When free guest memory runs short the balloon reclaims
// less than asked (it cannot migrate). onDone fires when the last page
// has been reported and released.
func (d *Driver) Inflate(bytes int64, onDone func(vmm.ReclaimResult)) {
	d.Submit(func() {
		vm := d.K.VM
		// A fault window may cut the request (possibly to nothing).
		want := int64(float64(units.BytesToPages(bytes)) * d.Fraction())
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
		d.Run(vm.Sched, steps, func(bd *stats.Breakdown, total sim.Duration) {
			res := vmm.ReclaimResult{
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
			d.Finish()
			onDone(res)
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
