package virtiomem

import (
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

func newRig(t *testing.T, movableBlocks int, capacity int64) (*Driver, *guestos.Kernel, *sim.Scheduler) {
	t.Helper()
	s := sim.NewScheduler()
	host := hostmem.New(capacity)
	vm := vmm.New("vm0", s, costmodel.Default(), host, 4)
	k := guestos.NewKernel(vm, guestos.Config{
		BootBytes:           units.BlockSize,
		MovableBytes:        int64(movableBlocks) * units.BlockSize,
		KernelResidentBytes: 8 * units.MiB,
	})
	return New(k), k, s
}

func TestPlugOnlinesBlocks(t *testing.T) {
	d, k, s := newRig(t, 8, 0)
	var plugged int64 = -1
	start := s.Now()
	var took sim.Duration
	d.Plug(512*units.MiB, func(n int64) { plugged = n; took = s.Now().Sub(start) })
	s.Run()
	if plugged != 512*units.MiB {
		t.Fatalf("plugged = %d", plugged)
	}
	if d.PluggedBlocks() != 4 {
		t.Fatalf("online blocks = %d", d.PluggedBlocks())
	}
	// §6.2.1: plugging costs 35-45 ms for function-sized requests.
	if took < 20*sim.Millisecond || took > 60*sim.Millisecond {
		t.Fatalf("plug latency %v outside the paper's 35-45ms band", took)
	}
	if k.Movable.NrFree() != 4*units.PagesPerBlock {
		t.Fatalf("free = %d", k.Movable.NrFree())
	}
}

func TestPlugRespectsHostBudget(t *testing.T) {
	// Host can back boot (128 MiB) + kernel + 2 movable blocks only.
	d, _, s := newRig(t, 8, 3*units.BlockSize)
	var plugged int64 = -1
	d.Plug(512*units.MiB, func(n int64) { plugged = n })
	s.Run()
	if plugged != 2*units.BlockSize {
		t.Fatalf("plugged = %s, want 2 blocks", units.HumanBytes(plugged))
	}
}

func TestUnplugEmptyBlocksNoMigrations(t *testing.T) {
	d, _, s := newRig(t, 8, 0)
	d.Plug(1024*units.MiB, func(int64) {})
	var res vmm.ReclaimResult
	d.Unplug(512*units.MiB, func(r vmm.ReclaimResult) { res = r })
	s.Run()
	if res.ReclaimedBytes != 512*units.MiB {
		t.Fatalf("reclaimed = %d", res.ReclaimedBytes)
	}
	if res.MigratedPages != 0 {
		t.Fatalf("migrated %d pages from empty blocks", res.MigratedPages)
	}
	// Zeroing still applies to the isolated free pages (the pathology
	// §2.2 calls out).
	if res.ZeroedPages != 4*units.PagesPerBlock {
		t.Fatalf("zeroed = %d", res.ZeroedPages)
	}
}

func TestUnplugMigratesOccupiedPages(t *testing.T) {
	d, k, s := newRig(t, 8, 0)
	d.Plug(8*128*units.MiB, func(int64) {})
	s.Run()
	// Two processes interleave their footprints across every block;
	// kill one.
	f1 := k.Spawn("f1")
	f2 := k.Spawn("f2")
	for i := 0; i < 8; i++ {
		k.TouchAnon(f1, 64*units.MiB, guestos.HugeOrder)
		k.TouchAnon(f2, 64*units.MiB, guestos.HugeOrder)
	}
	k.Exit(f2) // frees 512 MiB scattered across blocks
	var res vmm.ReclaimResult
	d.Unplug(512*units.MiB, func(r vmm.ReclaimResult) { res = r })
	s.Run()
	if res.ReclaimedBytes != 512*units.MiB {
		t.Fatalf("reclaimed = %s", units.HumanBytes(res.ReclaimedBytes))
	}
	if res.MigratedPages == 0 {
		t.Fatal("expected migrations with interleaved footprints")
	}
	// F1's memory is intact after migration.
	if f1.AnonPages() != units.BytesToPages(512*units.MiB) {
		t.Fatalf("f1 anon = %d", f1.AnonPages())
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Migration dominates the latency breakdown (§6.1.1: 61.5% avg).
	if res.Breakdown.Fraction(vmm.StepMigration) < 0.3 {
		t.Fatalf("migration fraction %.2f unexpectedly small: %v",
			res.Breakdown.Fraction(vmm.StepMigration), res.Breakdown)
	}
}

func TestUnplugPartialWhenMemoryFull(t *testing.T) {
	d, k, s := newRig(t, 4, 0)
	d.Plug(4*128*units.MiB, func(int64) {})
	s.Run()
	hog := k.Spawn("hog")
	// Occupy everything.
	if _, ok := k.TouchAnon(hog, 4*128*units.MiB, guestos.HugeOrder); !ok {
		t.Fatal("fill failed")
	}
	var res vmm.ReclaimResult
	d.Unplug(256*units.MiB, func(r vmm.ReclaimResult) { res = r })
	s.Run()
	if res.ReclaimedBytes != 0 {
		t.Fatalf("reclaimed %d from a full VM", res.ReclaimedBytes)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Guest memory must be intact after the aborted offline.
	if hog.AnonPages() != units.BytesToPages(4*128*units.MiB) {
		t.Fatalf("hog lost pages: %d", hog.AnonPages())
	}
}

func TestUnplugReleasesHostFrames(t *testing.T) {
	d, k, s := newRig(t, 8, 0)
	d.Plug(8*128*units.MiB, func(int64) {})
	s.Run()
	p := k.Spawn("f")
	k.TouchAnon(p, 512*units.MiB, guestos.HugeOrder)
	popBefore := k.VM.PopulatedPages()
	commitBefore := k.VM.CommittedPages()
	k.Exit(p)
	var res vmm.ReclaimResult
	d.Unplug(512*units.MiB, func(r vmm.ReclaimResult) { res = r })
	s.Run()
	if res.ReclaimedBytes != 512*units.MiB {
		t.Fatalf("reclaimed = %d", res.ReclaimedBytes)
	}
	releasedPages := popBefore - k.VM.PopulatedPages()
	if releasedPages <= 0 {
		t.Fatal("no host frames released")
	}
	if got := commitBefore - k.VM.CommittedPages(); got != units.BytesToPages(512*units.MiB) {
		t.Fatalf("uncommitted %d pages", got)
	}
}

func TestZeroingKnob(t *testing.T) {
	d, k, s := newRig(t, 8, 0)
	k.VM.Cost.ZeroOnUnplug = false
	d.Plug(8*128*units.MiB, func(int64) {})
	s.Run()
	p := k.Spawn("f")
	k.TouchAnon(p, 256*units.MiB, guestos.HugeOrder)
	k.Exit(p)
	var res vmm.ReclaimResult
	d.Unplug(256*units.MiB, func(r vmm.ReclaimResult) { res = r })
	s.Run()
	if res.ZeroedPages != 0 {
		t.Fatalf("zeroed %d pages with ZeroOnUnplug off", res.ZeroedPages)
	}
	if res.Breakdown.Get(vmm.StepZeroing) != 0 {
		t.Fatalf("zeroing time with knob off: %v", res.Breakdown)
	}
}

func TestRequestsSerialize(t *testing.T) {
	d, _, s := newRig(t, 8, 0)
	var order []string
	d.Plug(256*units.MiB, func(int64) { order = append(order, "plug1") })
	d.Plug(256*units.MiB, func(int64) { order = append(order, "plug2") })
	d.Unplug(128*units.MiB, func(vmm.ReclaimResult) { order = append(order, "unplug") })
	s.Run()
	if len(order) != 3 || order[0] != "plug1" || order[1] != "plug2" || order[2] != "unplug" {
		t.Fatalf("completion order = %v", order)
	}
}

func TestUnplugLatencyCalibration(t *testing.T) {
	// Reproduce the §6.1.1 anchor: reclaiming 512 MiB from a loaded
	// guest should take several hundred ms, dominated by migrations.
	d, k, s := newRig(t, 33, 0) // ~4 GiB movable + boot
	d.Plug(33*128*units.MiB, func(int64) {})
	s.Run()
	// 8 memhog-like processes fill most of the VM.
	procs := make([]*guestos.Process, 8)
	for i := range procs {
		procs[i] = k.Spawn("memhog")
	}
	for round := 0; round < 8; round++ {
		for _, p := range procs {
			k.TouchAnon(p, 64*units.MiB, guestos.HugeOrder)
		}
	}
	k.Exit(procs[0]) // free 512 MiB, scattered
	var res vmm.ReclaimResult
	d.Unplug(512*units.MiB, func(r vmm.ReclaimResult) { res = r })
	s.Run()
	if res.ReclaimedBytes != 512*units.MiB {
		t.Fatalf("reclaimed = %s", units.HumanBytes(res.ReclaimedBytes))
	}
	ms := res.Latency.Milliseconds()
	if ms < 150 || ms > 1500 {
		t.Fatalf("unplug latency %.0fms outside plausible band around the paper's 617ms", ms)
	}
}
