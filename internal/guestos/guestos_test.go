package guestos

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/hostmem"
	"squeezy/internal/mem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

func newTestKernel(t *testing.T, movableBlocks int) *Kernel {
	t.Helper()
	s := sim.NewScheduler()
	host := hostmem.New(0)
	vm := vmm.New("vm0", s, costmodel.Default(), host, 4)
	k := NewKernel(vm, Config{
		BootBytes:           units.BlockSize,
		MovableBytes:        int64(movableBlocks) * units.BlockSize,
		KernelResidentBytes: 16 * units.MiB,
	})
	k.OnlineAllMovable()
	return k
}

func TestBootFootprint(t *testing.T) {
	k := newTestKernel(t, 2)
	wantKernel := units.BytesToPages(16 * units.MiB)
	if got := k.Normal.NrAllocated(); got != wantKernel {
		t.Fatalf("kernel resident = %d pages, want %d", got, wantKernel)
	}
	if got := k.VM.PopulatedPages(); got != wantKernel {
		t.Fatalf("host populated = %d, want %d", got, wantKernel)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTouchAnonAllocatesAndPopulates(t *testing.T) {
	k := newTestKernel(t, 2)
	p := k.Spawn("f1")
	work, ok := k.TouchAnon(p, 64*units.MiB, HugeOrder)
	if !ok {
		t.Fatal("TouchAnon failed")
	}
	pages := units.BytesToPages(64 * units.MiB)
	if p.AnonPages() != pages {
		t.Fatalf("anon = %d, want %d", p.AnonPages(), pages)
	}
	if k.Movable.NrAllocated() != pages {
		t.Fatalf("movable allocated = %d", k.Movable.NrAllocated())
	}
	wantWork := sim.Duration(pages)*(k.Cost.GuestFaultPerPage+k.Cost.ZeroPerPage) +
		sim.Duration(pages)*k.Cost.NestedFaultPerPage
	if work != wantWork {
		t.Fatalf("work = %v, want %v", work, wantWork)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatTouchDoesNotRepopulate(t *testing.T) {
	k := newTestKernel(t, 2)
	p := k.Spawn("f1")
	k.TouchAnon(p, 32*units.MiB, HugeOrder)
	popBefore := k.VM.PopulatedPages()
	k.FreeAnon(p, 32*units.MiB)
	// Re-touch: guest pages are reused; host frames were never released,
	// so no new population.
	work2, _ := k.TouchAnon(p, 32*units.MiB, HugeOrder)
	if k.VM.PopulatedPages() != popBefore {
		t.Fatalf("populated changed: %d -> %d", popBefore, k.VM.PopulatedPages())
	}
	pages := units.BytesToPages(32 * units.MiB)
	want := sim.Duration(pages) * (k.Cost.GuestFaultPerPage + k.Cost.ZeroPerPage)
	if work2 != want {
		t.Fatalf("re-touch work = %v, want %v (no nested faults)", work2, want)
	}
}

func TestExitFreesAnon(t *testing.T) {
	k := newTestKernel(t, 2)
	p := k.Spawn("f1")
	k.TouchAnon(p, 100*units.MiB, HugeOrder)
	before := k.Movable.NrAllocated()
	freed := k.Exit(p)
	if freed != units.BytesToPages(100*units.MiB) {
		t.Fatalf("freed = %d", freed)
	}
	if k.Movable.NrAllocated() != before-freed {
		t.Fatalf("movable allocated = %d", k.Movable.NrAllocated())
	}
	if !p.Exited() || k.NumProcs() != 1 { // kernel proc remains
		t.Fatal("exit bookkeeping wrong")
	}
	// Host frames remain populated (the Figure 1 pathology).
	if k.VM.PopulatedPages() == 0 {
		t.Fatal("host frames should stay populated after guest free")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleExitPanics(t *testing.T) {
	k := newTestKernel(t, 1)
	p := k.Spawn("x")
	k.Exit(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Exit(p)
}

func TestOOMOnZoneExhaustion(t *testing.T) {
	k := newTestKernel(t, 1) // 128 MiB movable
	p := k.Spawn("hog")
	_, ok := k.TouchAnon(p, 256*units.MiB, HugeOrder)
	if ok {
		t.Fatal("TouchAnon should fail when zone exhausted")
	}
	// Partial allocation is retained and freed on exit.
	if p.AnonPages() == 0 {
		t.Fatal("partial allocation lost")
	}
	k.Exit(p)
	if k.Movable.NrAllocated() != 0 {
		t.Fatal("exit did not free partial allocation")
	}
}

func TestAssignedZoneConfinesAnon(t *testing.T) {
	k := newTestKernel(t, 2)
	part := k.AddZone("squeezy0", mem.ZoneSqueezyPrivate, 2*units.BlockSize)
	k.VM.Commit(2 * units.PagesPerBlock)
	part.OnlineBlock(0)
	part.OnlineBlock(1)
	p := k.Spawn("f1")
	p.AssignedZone = part
	k.TouchAnon(p, 64*units.MiB, HugeOrder)
	if part.NrAllocated() != units.BytesToPages(64*units.MiB) {
		t.Fatalf("partition allocated = %d", part.NrAllocated())
	}
	if k.Movable.NrAllocated() != 0 {
		t.Fatal("anon leaked into movable zone")
	}
}

func TestPartitionOverflowOOM(t *testing.T) {
	k := newTestKernel(t, 4)
	part := k.AddZone("squeezy0", mem.ZoneSqueezyPrivate, units.BlockSize)
	k.VM.Commit(units.PagesPerBlock)
	part.OnlineBlock(0)
	p := k.Spawn("f1")
	p.AssignedZone = part
	_, ok := k.TouchAnon(p, 256*units.MiB, HugeOrder)
	if ok {
		t.Fatal("partition overflow should fail (OOM-kill trigger)")
	}
	// Movable zone untouched: the overflow never spills out of the
	// partition (isolation invariant).
	if k.Movable.NrAllocated() != 0 {
		t.Fatal("partition overflow spilled into movable")
	}
}

func TestFileSharingAcrossProcesses(t *testing.T) {
	k := newTestKernel(t, 2)
	f := k.File("rootfs", 64*units.MiB)
	p1 := k.Spawn("f1")
	p2 := k.Spawn("f2")
	w1, ok := k.TouchFile(p1, f, 64*units.MiB)
	if !ok {
		t.Fatal("first TouchFile failed")
	}
	allocAfterFirst := k.Movable.NrAllocated()
	w2, ok := k.TouchFile(p2, f, 64*units.MiB)
	if !ok {
		t.Fatal("second TouchFile failed")
	}
	if k.Movable.NrAllocated() != allocAfterFirst {
		t.Fatal("second mapper allocated new pages; cache not shared")
	}
	if w2 >= w1 {
		t.Fatalf("warm map (%v) should be cheaper than cold (%v)", w2, w1)
	}
	if f.MapCount() != 2 {
		t.Fatalf("mapcount = %d", f.MapCount())
	}
	k.Exit(p1)
	if f.MapCount() != 1 {
		t.Fatalf("mapcount after exit = %d", f.MapCount())
	}
	if f.ResidentPages() != units.BytesToPages(64*units.MiB) {
		t.Fatal("exit evicted cached file pages")
	}
}

func TestFileZoneFollowsSharedZone(t *testing.T) {
	k := newTestKernel(t, 2)
	shared := k.AddZone("squeezy-shared", mem.ZoneSqueezyShared, units.BlockSize)
	k.VM.Commit(units.PagesPerBlock)
	shared.OnlineBlock(0)
	k.SharedZone = shared
	f := k.File("libs", 32*units.MiB)
	p := k.Spawn("f1")
	k.TouchFile(p, f, 32*units.MiB)
	if shared.NrAllocated() != units.BytesToPages(32*units.MiB) {
		t.Fatalf("shared partition allocated = %d", shared.NrAllocated())
	}
	if k.Movable.NrAllocated() != 0 {
		t.Fatal("file pages leaked into movable")
	}
}

func TestForkInheritsZoneAndHooks(t *testing.T) {
	k := newTestKernel(t, 2)
	var forked, exited bool
	k.OnProcFork = func(parent, child *Process) { forked = true }
	k.OnProcExit = func(p *Process) { exited = true }
	part := k.AddZone("sq0", mem.ZoneSqueezyPrivate, units.BlockSize)
	k.VM.Commit(units.PagesPerBlock)
	part.OnlineBlock(0)
	p := k.Spawn("f1")
	p.AssignedZone = part
	c := k.Fork(p, "f1-child")
	if !forked {
		t.Fatal("fork hook not called")
	}
	if c.AssignedZone != part {
		t.Fatal("child did not inherit partition")
	}
	k.Exit(c)
	if !exited {
		t.Fatal("exit hook not called")
	}
}

func TestChunksInRangeAndMigration(t *testing.T) {
	k := newTestKernel(t, 4)
	p := k.Spawn("f1")
	k.TouchAnon(p, 200*units.MiB, HugeOrder)
	// Find a block holding some of the chunks (buddy LIFO fills the
	// highest-onlined block first).
	blk := -1
	for i := 0; i < k.Movable.Blocks(); i++ {
		if k.Movable.OccupiedInBlock(i) > 0 {
			blk = i
			break
		}
	}
	if blk < 0 {
		t.Fatal("no occupied block after touch")
	}
	start, count := k.Movable.BlockRange(blk)
	chunks := k.ChunksInRange(nil, start, count)
	if len(chunks) == 0 {
		t.Fatal("no chunks found in touched block")
	}
	// Isolate the block, then migrate its chunks out.
	occupied := k.Movable.IsolateBlock(blk)
	var migrated int64
	for _, c := range chunks {
		pages, _, ok := k.MigrateChunk(c)
		if !ok {
			t.Fatal("migration failed with free memory available")
		}
		migrated += pages
		if pfn := k.chunk(c).PFN; pfn >= start && pfn < start+count {
			t.Fatal("chunk migrated into the isolated block")
		}
	}
	if migrated != occupied {
		t.Fatalf("migrated %d, isolate reported %d occupied", migrated, occupied)
	}
	k.Movable.FinishOffline(blk)
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Process still owns the same number of pages.
	if p.AnonPages() != units.BytesToPages(200*units.MiB) {
		t.Fatalf("anon pages changed across migration: %d", p.AnonPages())
	}
}

func TestMigrationFailsWhenNoTarget(t *testing.T) {
	k := newTestKernel(t, 1)
	p := k.Spawn("f1")
	// Fill the single movable block completely.
	if _, ok := k.TouchAnon(p, units.BlockSize, HugeOrder); !ok {
		t.Fatal("fill failed")
	}
	start, count := k.Movable.BlockRange(0)
	chunks := k.ChunksInRange(nil, start, count)
	k.Movable.IsolateBlock(0)
	_, _, ok := k.MigrateChunk(chunks[0])
	if ok {
		t.Fatal("migration should fail with no free target")
	}
}

func TestReleaseRange(t *testing.T) {
	k := newTestKernel(t, 2)
	p := k.Spawn("f1")
	k.TouchAnon(p, 128*units.MiB, HugeOrder)
	k.Exit(p)
	popBefore := k.VM.PopulatedPages()
	blk := -1
	for i := 0; i < k.Movable.Blocks(); i++ {
		start, count := k.Movable.BlockRange(i)
		if k.PopulatedInRange(start, count) > 0 {
			blk = i
			break
		}
	}
	if blk < 0 {
		t.Fatal("no populated block")
	}
	start, count := k.Movable.BlockRange(blk)
	inBlock := k.PopulatedInRange(start, count)
	if inBlock == 0 {
		t.Fatal("no populated pages in block 0")
	}
	released := k.ReleaseRange(start, count)
	if released != inBlock {
		t.Fatalf("released %d, populated was %d", released, inBlock)
	}
	if k.VM.PopulatedPages() != popBefore-released {
		t.Fatal("host populated accounting wrong")
	}
	// Double release is a no-op.
	if again := k.ReleaseRange(start, count); again != 0 {
		t.Fatalf("second release freed %d", again)
	}
}

// TestReleaseRangeByBlockCounts releases random ranges, unaligned and
// spanning several blocks, of a partly populated span. Each release
// must free exactly the pages the bitmap held in the range, and the
// per-block populated counts must keep matching the bitmap
// (CheckInvariants), through the skip, whole-block and partial paths
// and through re-population by later touches.
func TestReleaseRangeByBlockCounts(t *testing.T) {
	k := newTestKernel(t, 4)
	rng := rand.New(rand.NewPCG(5, 3))
	start, _ := k.Movable.BlockRange(0)
	span := k.Movable.Pages()
	var procs []*Process
	for round := 0; round < 40; round++ {
		p := k.Spawn("toucher")
		procs = append(procs, p)
		k.TouchAnon(p, int64(rng.IntN(48)+1)*units.MiB, rng.IntN(HugeOrder+1))
		if round%4 == 3 {
			q := procs[rng.IntN(len(procs))]
			if !q.Exited() {
				k.Exit(q)
			}
		}
		lo := start + rng.Int64N(span)
		n := rng.Int64N(start+span-lo) + 1
		if round%5 == 0 {
			// Whole blocks, so the clear-without-counting path runs.
			b := rng.Int64N(int64(k.Movable.Blocks()))
			lo, n = start+b*units.PagesPerBlock, units.PagesPerBlock*(1+rng.Int64N(int64(k.Movable.Blocks())-b))
		}
		want := k.PopulatedInRange(lo, n)
		if got := k.ReleaseRange(lo, n); got != want {
			t.Fatalf("round %d: ReleaseRange(%d, %d) released %d, bitmap held %d", round, lo, n, got, want)
		}
		if left := k.PopulatedInRange(lo, n); left != 0 {
			t.Fatalf("round %d: %d pages still populated after release", round, left)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestAllocatedPagesAccounting(t *testing.T) {
	k := newTestKernel(t, 2)
	base := k.AllocatedPages()
	p := k.Spawn("f1")
	k.TouchAnon(p, 10*units.MiB, 0)
	if k.AllocatedPages() != base+units.BytesToPages(10*units.MiB) {
		t.Fatal("AllocatedPages did not track touch")
	}
}

func TestOrderFallbackUnderFragmentation(t *testing.T) {
	k := newTestKernel(t, 1)
	// Fragment the zone: fill with 4 KiB pages, free every other one.
	p := k.Spawn("frag")
	if _, ok := k.TouchAnon(p, units.BlockSize, 0); !ok {
		t.Fatal("fill failed")
	}
	// Free half the chunks (newest-first ordering makes them single pages).
	k.FreeAnon(p, units.BlockSize/2)
	// A huge-order touch must fall back to order 0 and still succeed.
	q := k.Spawn("thp")
	if _, ok := k.TouchAnon(q, 16*units.MiB, HugeOrder); !ok {
		t.Fatal("fallback allocation failed")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The bulk bitset range operations must agree bit-for-bit with a
// straightforward per-bit reference across random, word-straddling
// ranges — these back markPopulated / PopulatedInRange / ReleaseRange.
func TestBitsetRangeOpsMatchReference(t *testing.T) {
	const span = 5 * 64
	var b bitset
	b.grow(span)
	ref := make([]bool, span)
	rng := rand.New(rand.NewPCG(11, 13))
	for step := 0; step < 3000; step++ {
		start := int64(rng.IntN(span))
		n := int64(rng.IntN(span - int(start) + 1))
		switch rng.IntN(3) {
		case 0:
			var want int64
			for i := start; i < start+n; i++ {
				if !ref[i] {
					ref[i] = true
					want++
				}
			}
			if got := b.setRange(start, n); got != want {
				t.Fatalf("step %d: setRange(%d,%d) fresh = %d, want %d", step, start, n, got, want)
			}
		case 1:
			var want int64
			for i := start; i < start+n; i++ {
				if ref[i] {
					ref[i] = false
					want++
				}
			}
			if got := b.clearRange(start, n); got != want {
				t.Fatalf("step %d: clearRange(%d,%d) cleared = %d, want %d", step, start, n, got, want)
			}
		case 2:
			var want int64
			for i := start; i < start+n; i++ {
				if ref[i] {
					want++
				}
			}
			if got := b.countRange(start, n); got != want {
				t.Fatalf("step %d: countRange(%d,%d) = %d, want %d", step, start, n, got, want)
			}
		}
	}
}

// TestMarkPopulatedThroughFullBlock populates one block chunk by chunk
// in random order: every chunk is fresh exactly once, however full the
// block already is, until the full block answers 0 from its count. A
// release empties it for the next round.
func TestMarkPopulatedThroughFullBlock(t *testing.T) {
	k := newTestKernel(t, 2)
	start, count := k.Movable.BlockRange(1)
	const chunk = 1 << HugeOrder
	rng := rand.New(rand.NewPCG(2, 8))
	for round := 0; round < 2; round++ {
		order := rng.Perm(int(count / chunk))
		for i, c := range order {
			pfn := start + int64(c)*chunk
			if fresh := k.markPopulated(pfn, chunk); fresh != chunk {
				t.Fatalf("round %d: chunk %d of %d fresh = %d, want %d", round, i, len(order), fresh, chunk)
			}
			if again := k.markPopulated(pfn, chunk); again != 0 {
				t.Fatalf("round %d: re-marking chunk %d fresh = %d", round, i, again)
			}
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := k.ReleaseRange(start, count); got != count {
			t.Fatalf("round %d: released %d of a full block", round, got)
		}
	}
}

// markPopulated must report exactly the newly backed pages when ranges
// overlap — the bulk-update equivalent of the old page-at-a-time loop.
func TestMarkPopulatedBulkCounting(t *testing.T) {
	k := newTestKernel(t, 4)
	base := k.Movable.Start()
	if fresh := k.markPopulated(base, 1000); fresh != 1000 {
		t.Fatalf("first touch fresh = %d, want 1000", fresh)
	}
	if fresh := k.markPopulated(base+500, 1000); fresh != 500 {
		t.Fatalf("overlapping touch fresh = %d, want 500", fresh)
	}
	if got := k.PopulatedInRange(base, 2000); got != 1500 {
		t.Fatalf("PopulatedInRange = %d, want 1500", got)
	}
	if released := k.populated.clearRange(base, 2000); released != 1500 {
		t.Fatalf("clearRange = %d, want 1500", released)
	}
}

// TestRecycledKernelReplaysIdentically is the reset-vs-fresh guard for
// the kernel arena recycler: a kernel built from arenas harvested off
// a released (and differently shaped) kernel must place every chunk at
// the same PFN as a kernel built from fresh storage. It also guards the
// chunk slab's generations: a ChunkID outliving its chunk — freed by
// Exit or FreeAnon, or orphaned by Release while its slab
// entry backs the next kernel — must panic, never resolve to whatever
// chunk reuses the entry.
func TestRecycledKernelReplaysIdentically(t *testing.T) {
	program := func(k *Kernel) []mem.PFN {
		k.OnlineAllMovable()
		var log []mem.PFN
		rng := rand.New(rand.NewPCG(5, 17))
		procs := []*Process{k.Spawn("a"), k.Spawn("b"), k.Spawn("c")}
		f := k.File("dep", 0)
		for i := 0; i < 60; i++ {
			p := procs[i%len(procs)]
			switch i % 5 {
			case 0, 1:
				k.TouchAnon(p, 4*units.MiB, HugeOrder)
			case 2:
				k.TouchFile(p, f, 2*units.MiB)
			case 3:
				freeAnonRandom(k, p, 2*units.MiB, rng)
			case 4:
				for _, c := range p.anonChunks {
					log = append(log, k.chunks[c].PFN)
				}
			}
		}
		for _, c := range k.ChunksInRange(nil, 0, k.Movable.Start()+k.Movable.Pages()) {
			log = append(log, k.chunk(c).PFN, mem.PFN(k.chunk(c).Order))
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	build := func(rec *Recycler) *Kernel {
		s := sim.NewScheduler()
		vm := vmm.New("vm", s, costmodel.Default(), hostmem.New(0), 4)
		return NewKernel(vm, Config{
			BootBytes:           units.BlockSize,
			MovableBytes:        4 * units.BlockSize,
			KernelResidentBytes: 16 * units.MiB,
			Recycle:             rec,
		})
	}
	want := program(build(nil))

	rec := NewRecycler()
	// Dirty the recycler with a differently shaped kernel's arenas,
	// released while it still owns anonymous and page-cache chunks.
	s := sim.NewScheduler()
	vm := vmm.New("dirty", s, costmodel.Default(), hostmem.New(0), 4)
	dirty := NewKernel(vm, Config{
		BootBytes:           2 * units.BlockSize,
		MovableBytes:        8 * units.BlockSize,
		KernelResidentBytes: 64 * units.MiB,
		Recycle:             rec,
	})
	dirty.OnlineAllMovable()
	p := dirty.Spawn("hog")
	dirty.TouchAnon(p, 512*units.MiB, HugeOrder)
	dirty.TouchFile(p, dirty.File("lib", 0), 64*units.MiB)
	orphans := dirty.ChunksInRange(nil, 0, dirty.Movable.Start()+dirty.Movable.Pages())
	dirty.Release()
	if len(rec.slabs) != 1 || cap(rec.slabs[0]) < len(orphans) {
		t.Fatal("dirty kernel retired no chunk slab")
	}
	expectStale(t, "after Release", func() { dirty.chunk(orphans[0]) })

	// Two generations: each replayed kernel is released still holding
	// the chunks its program left, and the next replay must not see them.
	for gen := 0; gen < 2; gen++ {
		k := build(rec)
		if len(rec.slabs) != 0 {
			t.Fatalf("gen %d: kernel did not reuse the recycled slab", gen)
		}
		got := program(k)
		if len(got) != len(want) {
			t.Fatalf("gen %d: logs differ in length: %d vs %d", gen, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gen %d: placement diverged at %d: recycled %d, fresh %d", gen, i, got[i], want[i])
			}
		}
		// The previous kernel's live chunks now name entries of this
		// kernel's slab; their handles must not resolve here.
		for _, id := range orphans {
			if int(id.idx) < len(k.chunks) {
				expectStale(t, "from the slab's previous kernel", func() { k.chunk(id) })
				expectStale(t, "from the slab's previous kernel", func() { k.MigrateChunk(id) })
			}
		}
		checkStaleAfterFree(t, k)
		orphans = k.ChunksInRange(nil, 0, k.Movable.Start()+k.Movable.Pages())
		k.Release()
		expectStale(t, "after Release", func() { k.ReleaseChunkFrames(orphans[0]) })
	}
}

// checkStaleAfterFree frees chunks through each owner path — FreeAnon,
// Exit — and requires every handle to a freed chunk to go stale, even
// once a new chunk has reused its slab entry.
func checkStaleAfterFree(t *testing.T, k *Kernel) {
	t.Helper()
	ids := func(idx []int32) []ChunkID {
		var out []ChunkID
		for _, i := range idx {
			out = append(out, ChunkID{idx: i, gen: k.chunks[i].gen})
		}
		return out
	}
	p := k.Spawn("victim")
	k.TouchAnon(p, 8*units.MiB, HugeOrder)
	held := ids(p.anonChunks)
	k.FreeAnon(p, 2*units.MiB) // frees the newest chunk
	expectStale(t, "after FreeAnon", func() { k.chunk(held[len(held)-1]) })
	k.chunk(held[0]) // still live
	k.Exit(p)
	for _, id := range held {
		expectStale(t, "after Exit", func() { k.chunk(id) })
	}
	// Reuse the freed entries: the new chunks must not answer to the
	// old handles.
	r := k.Spawn("reuser")
	k.TouchAnon(r, 16*units.MiB, HugeOrder)
	for _, id := range held {
		expectStale(t, "after Exit and reuse", func() { k.ReleaseChunkFrames(id) })
	}
	k.Exit(r)
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// expectStale requires fn to panic on a stale chunk handle.
func expectStale(t *testing.T, when string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("stale chunk handle used %s did not panic", when)
		}
	}()
	fn()
}

// freeAnonRandom releases bytes of p's anonymous memory, choosing
// victim chunks uniformly at random (one rng.IntN per chunk, then a
// swap-remove). It is the chunk-owning reference for the free order
// ScrambleFreeLists replays through buddy.Allocator.ShuffleFreeLists.
func freeAnonRandom(k *Kernel, p *Process, bytes int64, rng *rand.Rand) int64 {
	target := units.BytesToPages(bytes)
	var freed int64
	for freed < target && len(p.anonChunks) > 0 {
		i := rng.IntN(len(p.anonChunks))
		c := p.anonChunks[i]
		last := len(p.anonChunks) - 1
		p.anonChunks[i] = p.anonChunks[last]
		p.anonChunks = p.anonChunks[:last]
		pages := k.chunks[c].Pages()
		k.dropChunk(c)
		p.anonPages -= pages
		freed += pages
	}
	return freed
}

// TestReleaseIdempotent double-releases a kernel; the second call must
// be a no-op rather than double-retiring arenas.
func TestReleaseIdempotent(t *testing.T) {
	rec := NewRecycler()
	s := sim.NewScheduler()
	vm := vmm.New("vm", s, costmodel.Default(), hostmem.New(0), 4)
	k := NewKernel(vm, Config{BootBytes: units.BlockSize, Recycle: rec})
	k.Release()
	before := len(rec.pages)
	k.Release()
	if len(rec.pages) != before {
		t.Fatal("second Release retired the bitmap again")
	}
}

// TestChunkSlabHoldsNoPointers keeps the chunk slab invisible to the
// garbage collector: every Chunk field must be a plain number.
func TestChunkSlabHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Chunk{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if k := f.Type.Kind(); k < reflect.Int || k > reflect.Float64 {
			t.Errorf("Chunk.%s is a %v, not a number", f.Name, f.Type)
		}
	}
}

// TestOfflineZoneChecksReverseMap frees a live chunk behind the
// kernel's back, so the zone counts nothing allocated while the reverse
// map still holds the chunk. The one-step offline must refuse.
func TestOfflineZoneChecksReverseMap(t *testing.T) {
	k := newTestKernel(t, 0)
	z := k.AddZone("part", mem.ZoneSqueezyPrivate, 2*units.BlockSize)
	for i := 0; i < z.Blocks(); i++ {
		z.OnlineBlock(i)
	}
	p := k.Spawn("inst")
	p.AssignedZone = z
	if _, ok := k.TouchAnon(p, 2*units.MiB, HugeOrder); !ok {
		t.Fatal("touch failed")
	}
	c := k.chunks[p.anonChunks[0]]
	z.FreePage(c.PFN, int(c.Order))
	if z.NrAllocated() != 0 {
		t.Fatalf("zone still counts %d allocated pages", z.NrAllocated())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OfflineZone with a live chunk in the reverse map did not panic")
		}
	}()
	k.OfflineZone(z)
}

// TestReserveZonesSizesStorage adds the zones a ReserveZones call
// covered: neither the populated bitmap nor the block states may
// regrow, and both must reach the new span.
func TestReserveZonesSizesStorage(t *testing.T) {
	k := newTestKernel(t, 0)
	k.ReserveZones(40 * units.BlockSize)
	words, blocks := cap(k.populated.words), cap(k.blocks)
	for i := 0; i < 8; i++ {
		k.AddZone(fmt.Sprintf("part%d", i), mem.ZoneSqueezyPrivate, 4*units.BlockSize)
	}
	k.AddZone("shared", mem.ZoneSqueezyShared, 8*units.BlockSize)
	if cap(k.populated.words) != words || cap(k.blocks) != blocks {
		t.Fatalf("storage regrew: words cap %d -> %d, blocks cap %d -> %d",
			words, cap(k.populated.words), blocks, cap(k.blocks))
	}
	if got, want := int64(len(k.blocks)), k.nextPFN/units.PagesPerBlock; got != want {
		t.Fatalf("%d block states for %d blocks", got, want)
	}
	if got, want := int64(len(k.populated.words)), (k.nextPFN+63)/64; got != want {
		t.Fatalf("%d bitmap words for %d pages", got, k.nextPFN)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOfflineZoneCatchesBalancedDoubleFree frees one instance's chunk
// twice while another instance's chunk of the same size stays live. The
// zone's page count balances to nothing allocated, so only the reverse
// map shows the live chunk, and the one-step offline must refuse.
func TestOfflineZoneCatchesBalancedDoubleFree(t *testing.T) {
	k := newTestKernel(t, 0)
	z := k.AddZone("part", mem.ZoneSqueezyPrivate, units.BlockSize)
	z.OnlineBlock(0)
	var procs [2]*Process
	for i := range procs {
		procs[i] = k.Spawn("inst")
		procs[i].AssignedZone = z
		if _, ok := k.TouchAnon(procs[i], 2*units.MiB, HugeOrder); !ok {
			t.Fatal("touch failed")
		}
	}
	freed := k.chunks[procs[0].anonChunks[0]]
	k.Exit(procs[0])
	z.FreePage(freed.PFN, int(freed.Order))
	if z.NrAllocated() != 0 {
		t.Fatalf("zone still counts %d allocated pages", z.NrAllocated())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OfflineZone after a balanced double free did not panic")
		}
	}()
	k.OfflineZone(z)
}
