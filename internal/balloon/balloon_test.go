package balloon

import (
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

func newRig(t *testing.T, movableBlocks int) (*Driver, *guestos.Kernel, *sim.Scheduler) {
	t.Helper()
	s := sim.NewScheduler()
	vm := vmm.New("vm0", s, costmodel.Default(), hostmem.New(0), 4)
	k := guestos.NewKernel(vm, guestos.Config{
		BootBytes:           units.BlockSize,
		MovableBytes:        int64(movableBlocks) * units.BlockSize,
		KernelResidentBytes: 8 * units.MiB,
	})
	k.OnlineAllMovable()
	return New(k), k, s
}

func TestInflateReservesAndReleases(t *testing.T) {
	d, k, s := newRig(t, 4)
	p := k.Spawn("f")
	k.TouchAnon(p, 128*units.MiB, guestos.HugeOrder)
	k.Exit(p) // 128 MiB guest-free but host-populated
	popBefore := k.VM.PopulatedPages()
	var res vmm.ReclaimResult
	d.Inflate(128*units.MiB, func(r vmm.ReclaimResult) { res = r })
	s.Run()
	if res.ReclaimedBytes != 128*units.MiB {
		t.Fatalf("reclaimed = %s", units.HumanBytes(res.ReclaimedBytes))
	}
	if d.HeldPages() != units.BytesToPages(128*units.MiB) {
		t.Fatalf("held = %d", d.HeldPages())
	}
	// Host frames of the previously touched pages are released.
	if k.VM.PopulatedPages() >= popBefore {
		t.Fatal("no host frames released")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInflateLatencyIsExitDominated(t *testing.T) {
	d, _, s := newRig(t, 8)
	var res vmm.ReclaimResult
	d.Inflate(512*units.MiB, func(r vmm.ReclaimResult) { res = r })
	s.Run()
	// §6.1.1: 81% of ballooning latency is VM-exit handling.
	if f := res.Breakdown.Fraction(vmm.StepVMExits); f < 0.7 {
		t.Fatalf("vmexit fraction = %.2f, want >= 0.7", f)
	}
	// Calibration anchor: 512 MiB ≈ 1.4s (2.34x slower than the
	// virtio-mem 617ms anchor).
	ms := res.Latency.Milliseconds()
	if ms < 900 || ms > 2200 {
		t.Fatalf("inflate latency %.0fms outside calibration band", ms)
	}
}

func TestInflatePartialWhenNoFreeMemory(t *testing.T) {
	d, k, s := newRig(t, 2)
	hog := k.Spawn("hog")
	if _, ok := k.TouchAnon(hog, 2*128*units.MiB, guestos.HugeOrder); !ok {
		t.Fatal("fill failed")
	}
	var res vmm.ReclaimResult
	d.Inflate(128*units.MiB, func(r vmm.ReclaimResult) { res = r })
	s.Run()
	if res.ReclaimedBytes != 0 {
		t.Fatalf("balloon reclaimed %d from a full guest", res.ReclaimedBytes)
	}
}

func TestDeflateReturnsMemory(t *testing.T) {
	d, k, s := newRig(t, 4)
	d.Inflate(256*units.MiB, func(vmm.ReclaimResult) {})
	s.Run()
	freed := d.Deflate(256 * units.MiB)
	if freed != units.BytesToPages(256*units.MiB) {
		t.Fatalf("deflated %d pages", freed)
	}
	if d.HeldPages() != 0 {
		t.Fatalf("held = %d after deflate", d.HeldPages())
	}
	// The guest can use the memory again.
	p := k.Spawn("f")
	if _, ok := k.TouchAnon(p, 256*units.MiB, guestos.HugeOrder); !ok {
		t.Fatal("allocation after deflate failed")
	}
}

func TestInflateCountsExitsPerPage(t *testing.T) {
	d, k, s := newRig(t, 2)
	d.Inflate(16*units.MiB, func(vmm.ReclaimResult) {})
	s.Run()
	if got := k.VM.Exits("balloon-inflate"); got != units.BytesToPages(16*units.MiB) {
		t.Fatalf("exits = %d, want one per page", got)
	}
}

func TestSerializedInflations(t *testing.T) {
	d, _, s := newRig(t, 4)
	var done []int
	d.Inflate(64*units.MiB, func(vmm.ReclaimResult) { done = append(done, 1) })
	d.Inflate(64*units.MiB, func(vmm.ReclaimResult) { done = append(done, 2) })
	s.Run()
	if len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Fatalf("order = %v", done)
	}
}
