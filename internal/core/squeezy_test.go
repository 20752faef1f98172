package core

import (
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

func newRig(t *testing.T, n int, partBytes, sharedBytes, hostCap int64) (*Manager, *guestos.Kernel, *sim.Scheduler) {
	t.Helper()
	s := sim.NewScheduler()
	vm := vmm.New("vm0", s, costmodel.Default(), hostmem.New(hostCap), 4)
	k := guestos.NewKernel(vm, guestos.Config{
		BootBytes:           units.BlockSize,
		MovableBytes:        0,
		KernelResidentBytes: 8 * units.MiB,
	})
	m := NewManager(k, Config{PartitionBytes: partBytes, Concurrency: n, SharedBytes: sharedBytes})
	return m, k, s
}

func TestBootState(t *testing.T) {
	m, k, _ := newRig(t, 4, 256*units.MiB, 128*units.MiB, 0)
	if got := m.CountState(PartEmpty); got != 4 {
		t.Fatalf("empty partitions = %d", got)
	}
	// Shared partition is pre-populated at boot.
	if m.Shared == nil || m.Shared.NrOnline() == 0 {
		t.Fatal("shared partition not populated at boot")
	}
	if k.SharedZone != m.Shared {
		t.Fatal("kernel file path not wired to shared partition")
	}
	// Private partitions consume no host memory at boot (zone structs
	// only, §4.1).
	wantCommit := units.BytesToPages(units.BlockSize) + units.BytesToPages(128*units.MiB)
	if got := k.VM.CommittedPages(); got != wantCommit {
		t.Fatalf("boot commit = %d pages, want %d (boot+shared only)", got, wantCommit)
	}
}

func TestPlugPopulatesPartitions(t *testing.T) {
	m, _, s := newRig(t, 4, 256*units.MiB, 0, 0)
	var plugged int
	m.Plug(2, func(n int) { plugged = n })
	s.Run()
	if plugged != 2 {
		t.Fatalf("plugged = %d", plugged)
	}
	if m.CountState(PartFree) != 2 || m.CountState(PartEmpty) != 2 {
		t.Fatalf("states: free=%d empty=%d", m.CountState(PartFree), m.CountState(PartEmpty))
	}
}

func TestPlugLatencyBand(t *testing.T) {
	m, _, s := newRig(t, 4, 768*units.MiB, 0, 0)
	start := s.Now()
	var took sim.Duration
	m.Plug(1, func(int) { took = s.Now().Sub(start) })
	s.Run()
	// §6.2.1: 35-45ms for all function sizes.
	if took < 20*sim.Millisecond || took > 60*sim.Millisecond {
		t.Fatalf("plug latency %v outside band", took)
	}
}

func TestAttachImmediateWhenFree(t *testing.T) {
	m, k, s := newRig(t, 2, 256*units.MiB, 0, 0)
	m.Plug(1, func(int) {})
	s.Run()
	p := k.Spawn("f1")
	var got *Partition
	m.Attach(p, func(part *Partition) { got = part })
	if got == nil {
		t.Fatal("attach did not complete synchronously with a free partition")
	}
	if got.State() != PartReserved || got.Users() != 1 {
		t.Fatalf("partition state=%v users=%d", got.State(), got.Users())
	}
	if p.AssignedZone != got.Zone {
		t.Fatal("process not confined to partition zone")
	}
}

func TestAttachWaitsForPlug(t *testing.T) {
	m, k, s := newRig(t, 2, 256*units.MiB, 0, 0)
	p := k.Spawn("f1")
	attached := false
	m.Attach(p, func(*Partition) { attached = true })
	if attached {
		t.Fatal("attach completed with no populated partition")
	}
	if m.WaitqueueLen() != 1 {
		t.Fatalf("waitqueue = %d", m.WaitqueueLen())
	}
	m.Plug(1, func(int) {})
	s.Run()
	if !attached {
		t.Fatal("waiter not woken by plug")
	}
	if m.WaitqueueLen() != 0 {
		t.Fatal("waitqueue not drained")
	}
}

func TestWaitqueueFIFO(t *testing.T) {
	m, k, s := newRig(t, 4, 256*units.MiB, 0, 0)
	var order []int
	for i := 1; i <= 3; i++ {
		i := i
		m.Attach(k.Spawn("f"), func(*Partition) { order = append(order, i) })
	}
	m.Plug(3, func(int) {})
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wake order = %v", order)
	}
}

func TestExitFreesPartition(t *testing.T) {
	m, k, s := newRig(t, 2, 256*units.MiB, 0, 0)
	m.Plug(1, func(int) {})
	s.Run()
	p := k.Spawn("f1")
	var part *Partition
	m.Attach(p, func(pt *Partition) { part = pt })
	k.TouchAnon(p, 100*units.MiB, guestos.HugeOrder)
	k.Exit(p)
	if part.State() != PartFree {
		t.Fatalf("partition state after exit = %v", part.State())
	}
	if part.Zone.NrAllocated() != 0 {
		t.Fatal("partition not empty after exit")
	}
	if m.FreeReclaimable() != 1 {
		t.Fatalf("reclaimable = %d", m.FreeReclaimable())
	}
}

func TestForkRefcounting(t *testing.T) {
	m, k, s := newRig(t, 2, 256*units.MiB, 0, 0)
	m.Plug(1, func(int) {})
	s.Run()
	p := k.Spawn("f1")
	var part *Partition
	m.Attach(p, func(pt *Partition) { part = pt })
	c1 := k.Fork(p, "w1")
	c2 := k.Fork(c1, "w2")
	if part.Users() != 3 {
		t.Fatalf("users = %d, want 3", part.Users())
	}
	k.Exit(c2)
	k.Exit(p)
	if part.State() != PartReserved {
		t.Fatal("partition freed while a member process lives")
	}
	k.Exit(c1)
	if part.State() != PartFree || part.Users() != 0 {
		t.Fatalf("state=%v users=%d after last exit", part.State(), part.Users())
	}
}

func TestUnplugInstantNoMigrationNoZeroing(t *testing.T) {
	m, k, s := newRig(t, 4, 512*units.MiB, 0, 0)
	m.Plug(2, func(int) {})
	s.Run()
	p := k.Spawn("f1")
	m.Attach(p, func(*Partition) {})
	k.TouchAnon(p, 400*units.MiB, guestos.HugeOrder)
	k.Exit(p)
	var res UnplugResult
	m.Unplug(1, func(r UnplugResult) { res = r })
	s.Run()
	if res.ReclaimedBytes != 512*units.MiB {
		t.Fatalf("reclaimed = %s", units.HumanBytes(res.ReclaimedBytes))
	}
	if res.Breakdown.Get(vmm.StepMigration) != 0 || res.Breakdown.Get(vmm.StepZeroing) != 0 {
		t.Fatalf("squeezy unplug migrated/zeroed: %v", res.Breakdown)
	}
	// §6.1.1: 2 GiB in ~127ms scales to ~32ms for 512 MiB; allow slack.
	if ms := res.Latency.Milliseconds(); ms > 80 {
		t.Fatalf("squeezy unplug took %.0fms", ms)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnplugReleasesHostMemory(t *testing.T) {
	m, k, s := newRig(t, 2, 256*units.MiB, 0, 0)
	m.Plug(1, func(int) {})
	s.Run()
	p := k.Spawn("f1")
	m.Attach(p, func(*Partition) {})
	k.TouchAnon(p, 200*units.MiB, guestos.HugeOrder)
	popBefore := k.VM.PopulatedPages()
	commitBefore := k.VM.CommittedPages()
	k.Exit(p)
	m.Unplug(1, func(UnplugResult) {})
	s.Run()
	if released := popBefore - k.VM.PopulatedPages(); released != units.BytesToPages(200*units.MiB) {
		t.Fatalf("released %d pages, want the touched 200 MiB", released)
	}
	if commitBefore-k.VM.CommittedPages() != units.BytesToPages(256*units.MiB) {
		t.Fatal("commit not returned")
	}
}

func TestUnplugOnlyTakesFreePartitions(t *testing.T) {
	m, k, s := newRig(t, 3, 256*units.MiB, 0, 0)
	m.Plug(3, func(int) {})
	s.Run()
	busy := k.Spawn("busy")
	m.Attach(busy, func(*Partition) {})
	k.TouchAnon(busy, 100*units.MiB, guestos.HugeOrder)
	var res UnplugResult
	m.Unplug(3, func(r UnplugResult) { res = r })
	s.Run()
	if res.ReclaimedBytes != 2*256*units.MiB {
		t.Fatalf("reclaimed = %s, want exactly the 2 free partitions", units.HumanBytes(res.ReclaimedBytes))
	}
	if busy.AnonPages() == 0 {
		t.Fatal("running instance lost memory")
	}
}

func TestReplugAfterUnplugRepopulates(t *testing.T) {
	m, k, s := newRig(t, 1, 256*units.MiB, 0, 0)
	m.Plug(1, func(int) {})
	s.Run()
	p := k.Spawn("f1")
	m.Attach(p, func(*Partition) {})
	k.TouchAnon(p, 128*units.MiB, guestos.HugeOrder)
	k.Exit(p)
	m.Unplug(1, func(UnplugResult) {})
	s.Run()
	if k.VM.PopulatedPages() <= units.BytesToPages(8*units.MiB) { // kernel only
		// ok: partition frames released
	} else {
		t.Fatalf("frames not released: %d", k.VM.PopulatedPages())
	}
	// Plug again; a new instance must re-fault its memory (fresh host
	// frames).
	m.Plug(1, func(int) {})
	s.Run()
	q := k.Spawn("f2")
	m.Attach(q, func(*Partition) {})
	popBefore := k.VM.PopulatedPages()
	k.TouchAnon(q, 64*units.MiB, guestos.HugeOrder)
	if k.VM.PopulatedPages()-popBefore != units.BytesToPages(64*units.MiB) {
		t.Fatal("re-touch after replug did not repopulate host frames")
	}
}

func TestAnonNeverLeavesPartition(t *testing.T) {
	m, k, s := newRig(t, 2, 256*units.MiB, 128*units.MiB, 0)
	m.Plug(2, func(int) {})
	s.Run()
	p1 := k.Spawn("f1")
	p2 := k.Spawn("f2")
	var pt1, pt2 *Partition
	m.Attach(p1, func(pt *Partition) { pt1 = pt })
	m.Attach(p2, func(pt *Partition) { pt2 = pt })
	k.TouchAnon(p1, 200*units.MiB, guestos.HugeOrder)
	k.TouchAnon(p2, 200*units.MiB, guestos.HugeOrder)
	if pt1.Zone.NrAllocated() != units.BytesToPages(200*units.MiB) {
		t.Fatal("p1 anon not confined")
	}
	if pt2.Zone.NrAllocated() != units.BytesToPages(200*units.MiB) {
		t.Fatal("p2 anon not confined")
	}
	// File pages land in the shared partition, not the private ones.
	f := k.File("deps", 64*units.MiB)
	k.TouchFile(p1, f, 64*units.MiB)
	if m.Shared.NrAllocated() != units.BytesToPages(64*units.MiB) {
		t.Fatal("file pages not in shared partition")
	}
}

func TestPartitionOverflowTriggersOOM(t *testing.T) {
	m, k, s := newRig(t, 1, 256*units.MiB, 0, 0)
	m.Plug(1, func(int) {})
	s.Run()
	p := k.Spawn("f1")
	m.Attach(p, func(*Partition) {})
	if _, ok := k.TouchAnon(p, 512*units.MiB, guestos.HugeOrder); ok {
		t.Fatal("overflow allocation should fail")
	}
	// The OOM killer reaps the process; the partition then recycles.
	k.Exit(p)
	if m.FreeReclaimable() != 1 {
		t.Fatal("partition not reclaimable after OOM kill")
	}
}

func TestPlugRespectsHostBudget(t *testing.T) {
	// Host capacity: boot (128 MiB) + 1 partition only.
	m, _, s := newRig(t, 4, 256*units.MiB, 0, units.BlockSize+256*units.MiB)
	var plugged int
	m.Plug(3, func(n int) { plugged = n })
	s.Run()
	if plugged != 1 {
		t.Fatalf("plugged = %d, want 1 (budget-limited)", plugged)
	}
}

func TestBatchedExitsAblation(t *testing.T) {
	m, k, s := newRig(t, 4, 256*units.MiB, 0, 0)
	m.Plug(4, func(int) {})
	s.Run()
	for i := 0; i < 4; i++ {
		p := k.Spawn("f")
		m.Attach(p, func(*Partition) {})
		k.Exit(p)
	}
	var res UnplugResult
	m.Unplug(4, func(r UnplugResult) { res = r })
	s.Run()
	unbatched := res.Latency

	// Same again, with batching.
	m2, k2, s2 := newRig(t, 4, 256*units.MiB, 0, 0)
	k2.VM.Cost.BatchUnplugExits = true
	m2.Plug(4, func(int) {})
	s2.Run()
	for i := 0; i < 4; i++ {
		p := k2.Spawn("f")
		m2.Attach(p, func(*Partition) {})
		k2.Exit(p)
	}
	var res2 UnplugResult
	m2.Unplug(4, func(r UnplugResult) { res2 = r })
	s2.Run()
	if res2.Latency >= unbatched {
		t.Fatalf("batched %v not faster than unbatched %v", res2.Latency, unbatched)
	}
}

// halfFaults is a fault window that cuts every unplug to half its
// partitions and stalls nothing.
type halfFaults struct{}

func (halfFaults) ReclaimStall() sim.Duration { return 0 }
func (halfFaults) ReclaimFraction() float64   { return 0.5 }

func TestFaultedUnplugReportsRequestAsIssued(t *testing.T) {
	m, _, s := newRig(t, 2, 256*units.MiB, 0, 0)
	m.Plug(2, func(int) {})
	s.Run()
	m.Faults = halfFaults{}
	var res UnplugResult
	m.Unplug(2, func(r UnplugResult) { res = r })
	s.Run()
	if res.RequestedBytes != 2*256*units.MiB {
		t.Fatalf("requested = %s, want the 2 partitions asked for", units.HumanBytes(res.RequestedBytes))
	}
	if res.ReclaimedBytes != 256*units.MiB {
		t.Fatalf("reclaimed = %s, want the 1 partition the fault allows", units.HumanBytes(res.ReclaimedBytes))
	}
}

func TestUnplugPanicsOnLiveChunkInFreePartition(t *testing.T) {
	m, k, s := newRig(t, 1, 256*units.MiB, 0, 0)
	m.Plug(1, func(int) {})
	s.Run()
	part := m.Partitions()[0]
	// A process confined to the partition without Attach leaves it free
	// (no partition_users) while its chunk lives in the zone.
	stray := k.Spawn("stray")
	stray.AssignedZone = part.Zone
	if _, ok := k.TouchAnon(stray, 4*units.MiB, guestos.HugeOrder); !ok {
		t.Fatal("touch failed")
	}
	if part.State() != PartFree {
		t.Fatalf("partition state = %v, want free", part.State())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unplugging a partition with a live chunk did not panic")
		}
	}()
	m.Unplug(1, func(UnplugResult) {})
	s.Run()
}
