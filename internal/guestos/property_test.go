package guestos

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"squeezy/internal/costmodel"
	"squeezy/internal/hostmem"
	"squeezy/internal/mem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

// TestLifecycleProperty drives a random sequence of spawn / touch /
// free / fork / exit / file operations and checks the cross-layer
// invariants after every few steps: rmap coverage equals zone
// accounting, populated never exceeds committed, anonymous memory never
// leaves an assigned zone.
func TestLifecycleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xabc))
		s := sim.NewScheduler()
		vm := vmm.New("prop", s, costmodel.Default(), hostmem.New(0), 4)
		k := NewKernel(vm, Config{
			BootBytes:           units.BlockSize,
			MovableBytes:        4 * units.BlockSize,
			KernelResidentBytes: 8 * units.MiB,
		})
		k.OnlineAllMovable()
		part := k.AddZone("part", mem.ZoneSqueezyPrivate, 2*units.BlockSize)
		vm.Commit(2 * units.PagesPerBlock)
		part.OnlineBlock(0)
		part.OnlineBlock(1)

		var procs []*Process
		for step := 0; step < 300; step++ {
			switch op := rng.IntN(10); {
			case op < 3: // spawn, sometimes confined
				p := k.Spawn("p")
				if rng.IntN(3) == 0 {
					p.AssignedZone = part
				}
				procs = append(procs, p)
			case op < 6 && len(procs) > 0: // touch
				p := procs[rng.IntN(len(procs))]
				bytes := int64(rng.IntN(16)+1) * units.MiB
				order := 0
				if rng.IntN(2) == 0 {
					order = HugeOrder
				}
				k.TouchAnon(p, bytes, order) // may fail under pressure; fine
			case op < 7 && len(procs) > 0: // partial free
				p := procs[rng.IntN(len(procs))]
				k.FreeAnon(p, int64(rng.IntN(8)+1)*units.MiB)
			case op < 8 && len(procs) > 0: // fork
				p := procs[rng.IntN(len(procs))]
				procs = append(procs, k.Fork(p, "child"))
			case op < 9 && len(procs) > 0: // exit
				i := rng.IntN(len(procs))
				k.Exit(procs[i])
				procs = append(procs[:i], procs[i+1:]...)
			default: // file touch
				if len(procs) == 0 {
					continue
				}
				p := procs[rng.IntN(len(procs))]
				f := k.File("shared", 64*units.MiB)
				k.TouchFile(p, f, int64(rng.IntN(32)+1)*units.MiB)
			}
			if step%25 == 0 {
				if err := k.CheckInvariants(); err != nil {
					t.Logf("invariant broken at step %d: %v", step, err)
					return false
				}
				if vm.PopulatedPages() > vm.CommittedPages() {
					return false
				}
			}
		}
		// Confinement: every anon chunk of a confined process is in part.
		for _, p := range procs {
			if p.AssignedZone != part {
				continue
			}
			for _, c := range p.anonChunks {
				if k.zones[k.chunks[c].zone] != part {
					return false
				}
			}
		}
		// Drain everything; zones must return to empty (files may stay).
		for _, p := range procs {
			k.Exit(p)
		}
		return k.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestOfflineUnderLoadProperty isolates/migrates random blocks while
// processes keep their memory: after each offline, every process still
// owns exactly the pages it touched and the kernel invariants hold.
func TestOfflineUnderLoadProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xdef))
		s := sim.NewScheduler()
		vm := vmm.New("prop", s, costmodel.Default(), hostmem.New(0), 4)
		k := NewKernel(vm, Config{
			BootBytes:           units.BlockSize,
			MovableBytes:        8 * units.BlockSize,
			KernelResidentBytes: 8 * units.MiB,
		})
		k.OnlineAllMovable()
		k.ScrambleFreeLists(k.Movable, rng)

		var procs []*Process
		var want []int64
		for i := 0; i < 4; i++ {
			p := k.Spawn("p")
			bytes := int64(rng.IntN(128)+32) * units.MiB
			if _, ok := k.TouchAnon(p, bytes, HugeOrder); !ok {
				return true // overloaded config; skip
			}
			procs = append(procs, p)
			want = append(want, p.AnonPages())
		}

		// Try to offline up to 3 random online blocks.
		offlined := 0
		for attempts := 0; attempts < 10 && offlined < 3; attempts++ {
			online := k.Movable.OnlineBlocks()
			if len(online) == 0 {
				break
			}
			b := online[rng.IntN(len(online))]
			k.Movable.IsolateBlock(b)
			start, count := k.Movable.BlockRange(b)
			ok := true
			for _, c := range k.ChunksInRange(nil, start, count) {
				if _, _, migrated := k.MigrateChunk(c); !migrated {
					ok = false
					break
				}
			}
			if !ok {
				k.ReturnIsolatedGaps(k.Movable, start, count)
				continue
			}
			k.Movable.FinishOffline(b)
			k.ReleaseRange(start, count)
			offlined++
		}

		for i, p := range procs {
			if p.AnonPages() != want[i] {
				return false
			}
		}
		return k.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestScrambleConservesMemory(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		s := sim.NewScheduler()
		vm := vmm.New("prop", s, costmodel.Default(), hostmem.New(0), 4)
		k := NewKernel(vm, Config{
			BootBytes:           units.BlockSize,
			MovableBytes:        4 * units.BlockSize,
			KernelResidentBytes: 8 * units.MiB,
		})
		k.OnlineAllMovable()
		p := k.Spawn("p")
		k.TouchAnon(p, 100*units.MiB, HugeOrder)
		freeBefore := k.Movable.NrFree()
		popBefore := vm.PopulatedPages()
		k.ScrambleFreeLists(k.Movable, rng)
		// Scrambling reorders free lists but conserves free pages,
		// allocated pages, and host population.
		return k.Movable.NrFree() == freeBefore &&
			vm.PopulatedPages() == popBefore &&
			p.AnonPages() == units.BytesToPages(100*units.MiB) &&
			k.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// liveChunks gathers every chunk the kernel's processes and cached
// files own, from the owners' side rather than the reverse map.
func liveChunks(k *Kernel) []ChunkID {
	var out []ChunkID
	add := func(idx []int32) {
		for _, i := range idx {
			out = append(out, ChunkID{idx: i, gen: k.chunks[i].gen})
		}
	}
	for _, p := range k.procs {
		add(p.anonChunks)
	}
	for _, f := range k.files {
		add(f.chunks)
	}
	return out
}

// TestChunksInRangeMatchesBruteForce drives random anonymous and file
// touches, frees, migrations, exits and file drops, and after every
// step compares ChunksInRange over random (block-unaligned) ranges with
// a brute-force filter of all live chunks.
func TestChunksInRangeMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x5107))
		k := newTestKernel(t, 4)
		byPFN := func(a, b ChunkID) int { return cmp.Compare(k.chunk(a).PFN, k.chunk(b).PFN) }
		span := k.Movable.Start() + k.Movable.Pages()
		files := []string{"lib0", "lib1", "lib2"}
		var procs []*Process
		for step := 0; step < 200; step++ {
			switch op := rng.IntN(12); {
			case op < 2 || len(procs) == 0:
				procs = append(procs, k.Spawn("p"))
			case op < 5:
				// 4 KiB touches stay small so the chunk count does too.
				order, bytes := HugeOrder, int64(rng.IntN(24)+1)*units.MiB
				if rng.IntN(2) == 0 {
					order, bytes = 0, int64(rng.IntN(64)+1)*units.PageSize
				}
				k.TouchAnon(procs[rng.IntN(len(procs))], bytes, order)
			case op < 7:
				f := k.File(files[rng.IntN(len(files))], 0)
				k.TouchFile(procs[rng.IntN(len(procs))], f, int64(rng.IntN(16)+1)*units.MiB)
			case op < 8:
				k.FreeAnon(procs[rng.IntN(len(procs))], int64(rng.IntN(8)+1)*units.MiB)
			case op < 10: // migrate a chunk, then release its old pages
				live := liveChunks(k)
				if len(live) == 0 {
					continue
				}
				// Sorted, so the pick does not depend on map order.
				slices.SortFunc(live, byPFN)
				id := live[rng.IntN(len(live))]
				old := *k.chunk(id) // a copy: migration moves the entry
				if _, _, ok := k.MigrateChunk(id); ok {
					k.zones[old.zone].FreePage(old.PFN, int(old.Order))
				}
			case op < 11:
				i := rng.IntN(len(procs))
				k.Exit(procs[i])
				procs = slices.Delete(procs, i, i+1)
			default:
				if f, cached := k.files[files[rng.IntN(len(files))]]; cached && f.MapCount() == 0 {
					k.DropFile(f)
				}
			}
			live := liveChunks(k)
			for q := 0; q < 3; q++ {
				start := int64(rng.IntN(int(span)))
				count := int64(rng.IntN(int(span-start))) + 1
				var want []ChunkID
				for _, c := range live {
					if pfn := k.chunk(c).PFN; pfn >= start && pfn < start+count {
						want = append(want, c)
					}
				}
				slices.SortFunc(want, byPFN)
				if got := k.ChunksInRange(nil, start, count); !slices.Equal(got, want) {
					t.Logf("step %d: ChunksInRange(%d, %d) returned %d chunks, brute force %d", step, start, count, len(got), len(want))
					return false
				}
			}
			if step%20 == 0 {
				if err := k.CheckInvariants(); err != nil {
					t.Logf("step %d: %v", step, err)
					return false
				}
			}
		}
		return k.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// refScramble is the chunk-owning reference for ScrambleFreeLists: a
// scrambler process reserves all of z's free memory with AllocReserved,
// then frees it in random order with freeAnonRandom.
func refScramble(k *Kernel, z *mem.Zone, rng *rand.Rand) {
	p := k.Spawn("scrambler")
	p.AssignedZone = z
	k.AllocReserved(nil, p, z.NrFree())
	freeAnonRandom(k, p, units.PagesToBytes(p.AnonPages()), rng)
	k.Exit(p)
}

// TestScrambleMatchesReference scrambles twin kernels built from one
// seed three times, one through ScrambleFreeLists and one through
// refScramble, around aborted offlines of one movable block. Every
// kernel invariant must hold afterwards, and the free lists must come
// out identical — a later alloc-everything pass at mixed orders returns
// the same PFN sequence — and so must the free count, the process
// table, the exit hook calls and the rng stream.
func TestScrambleMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		build := func() (*Kernel, *rand.Rand, *int) {
			k := newTestKernel(t, 4)
			exits := new(int)
			k.OnProcExit = func(*Process) { *exits++ }
			rng := rand.New(rand.NewPCG(seed, 0x5c))
			// Fragment the zone first so reservations fall back to
			// smaller orders.
			p := k.Spawn("frag")
			for i := 0; i < 8; i++ {
				order := 0
				if rng.IntN(2) == 0 {
					order = HugeOrder
				}
				k.TouchAnon(p, int64(rng.IntN(32)+1)*units.MiB, order)
				freeAnonRandom(k, p, int64(rng.IntN(16))*units.MiB, rng)
			}
			return k, rng, exits
		}
		ka, ra, exitsA := build()
		kb, rb, exitsB := build()

		// Isolating a block and aborting the offline re-pushes its free
		// chunks over their stale stack entries, leaving duplicate valid
		// entries the next scramble must take once. Two scrambles in a
		// row follow. A third runs with the block isolated again, so
		// its free pages are outside the allocator and its stale
		// entries must stay unobservable, and the block is then
		// returned on both sides.
		iso := ra.IntN(ka.Movable.Blocks())
		if rb.IntN(kb.Movable.Blocks()) != iso {
			t.Fatal("twin rngs diverged")
		}
		start, count := ka.Movable.BlockRange(iso)
		for _, k := range []*Kernel{ka, kb} {
			k.Movable.IsolateBlock(iso)
			k.ReturnIsolatedGaps(k.Movable, start, count)
		}
		for i := range 3 {
			if i == 2 {
				ka.Movable.IsolateBlock(iso)
				kb.Movable.IsolateBlock(iso)
			}
			ka.ScrambleFreeLists(ka.Movable, ra)
			refScramble(kb, kb.Movable, rb)
		}
		if ga, gb := ka.ReturnIsolatedGaps(ka.Movable, start, count), kb.ReturnIsolatedGaps(kb.Movable, start, count); ga != gb {
			t.Logf("returned %d isolated pages vs reference %d", ga, gb)
			return false
		}

		if ka.Movable.NrFree() != kb.Movable.NrFree() {
			t.Logf("NrFree %d vs reference %d", ka.Movable.NrFree(), kb.Movable.NrFree())
			return false
		}
		if ka.NumProcs() != kb.NumProcs() || ka.nextPID != kb.nextPID || *exitsA != *exitsB {
			t.Logf("procs %d/%d, next pid %d/%d, exits %d/%d", ka.NumProcs(), kb.NumProcs(), ka.nextPID, kb.nextPID, *exitsA, *exitsB)
			return false
		}
		if a, b := ra.Uint64(), rb.Uint64(); a != b {
			t.Logf("next rng draw %#x vs reference %#x", a, b)
			return false
		}
		for _, k := range []*Kernel{ka, kb} {
			if err := k.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		orders := []int{0, HugeOrder, 3, 10, 1, 5}
		for i := 0; ka.Movable.NrFree() > 0; i++ {
			o := orders[i%len(orders)]
			pa, oka := ka.Movable.AllocPage(o)
			pb, okb := kb.Movable.AllocPage(o)
			if pa != pb || oka != okb {
				t.Logf("alloc %d at order %d: %d,%v vs reference %d,%v", i, o, pa, oka, pb, okb)
				return false
			}
		}
		return kb.Movable.NrFree() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
