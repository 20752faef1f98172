package mem

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"squeezy/internal/units"
)

func newOnlineZone(t *testing.T, blocks int) *Zone {
	t.Helper()
	z := NewZone("test", ZoneMovable, 0, int64(blocks)*units.PagesPerBlock)
	for i := 0; i < blocks; i++ {
		z.OnlineBlock(i)
	}
	return z
}

func TestZoneGeometry(t *testing.T) {
	z := NewZone("movable", ZoneMovable, units.PagesPerBlock, 4*units.PagesPerBlock)
	if z.Blocks() != 4 {
		t.Fatalf("Blocks = %d", z.Blocks())
	}
	if z.Bytes() != 4*units.BlockSize {
		t.Fatalf("Bytes = %d", z.Bytes())
	}
	start, count := z.BlockRange(2)
	if start != 3*units.PagesPerBlock || count != units.PagesPerBlock {
		t.Fatalf("BlockRange(2) = %d,%d", start, count)
	}
	if z.BlockOf(start) != 2 {
		t.Fatalf("BlockOf = %d", z.BlockOf(start))
	}
	if !z.Contains(start) || z.Contains(0) {
		t.Fatal("Contains misbehaves")
	}
}

func TestUnalignedZonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewZone("bad", ZoneMovable, 1, units.PagesPerBlock)
}

func TestOnlineOfflineAccounting(t *testing.T) {
	z := NewZone("m", ZoneMovable, 0, 2*units.PagesPerBlock)
	if z.NrOnline() != 0 || z.NrFree() != 0 {
		t.Fatal("fresh zone should be empty")
	}
	z.OnlineBlock(0)
	if z.NrOnline() != units.PagesPerBlock || z.NrFree() != units.PagesPerBlock {
		t.Fatalf("after online: online=%d free=%d", z.NrOnline(), z.NrFree())
	}
	if _, ok := z.AllocPage(0); !ok {
		t.Fatal("alloc from online block failed")
	}
	if z.NrAllocated() != 1 {
		t.Fatalf("NrAllocated = %d", z.NrAllocated())
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOfflineEmptyBlock(t *testing.T) {
	z := newOnlineZone(t, 2)
	occupied := z.IsolateBlock(1)
	if occupied != 0 {
		t.Fatalf("occupied = %d in empty block", occupied)
	}
	z.FinishOffline(1)
	if z.BlockIsOnline(1) {
		t.Fatal("block still online")
	}
	if z.NrOnline() != units.PagesPerBlock {
		t.Fatalf("NrOnline = %d", z.NrOnline())
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIsolateReportsOccupied(t *testing.T) {
	z := newOnlineZone(t, 1)
	// Allocate 10 pages: they land in block 0.
	for i := 0; i < 10; i++ {
		if _, ok := z.AllocPage(0); !ok {
			t.Fatal("alloc failed")
		}
	}
	occupied := z.IsolateBlock(0)
	if occupied != 10 {
		t.Fatalf("occupied = %d, want 10", occupied)
	}
}

func TestFinishOfflineWithFreePagesPanics(t *testing.T) {
	z := newOnlineZone(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: block has free pages in allocator")
		}
	}()
	z.FinishOffline(0)
}

func TestUndoIsolate(t *testing.T) {
	z := newOnlineZone(t, 1)
	occ := z.IsolateBlock(0)
	if occ != 0 {
		t.Fatalf("occ = %d", occ)
	}
	if z.NrFree() != 0 {
		t.Fatalf("NrFree after isolate = %d", z.NrFree())
	}
	z.UndoIsolate(0, 0)
	if z.NrFree() != units.PagesPerBlock {
		t.Fatalf("NrFree after undo = %d", z.NrFree())
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleOnlinePanics(t *testing.T) {
	z := newOnlineZone(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	z.OnlineBlock(0)
}

func TestAllocNeverReturnsOfflinePages(t *testing.T) {
	z := NewZone("m", ZoneMovable, 0, 4*units.PagesPerBlock)
	z.OnlineBlock(2) // only block 2 online
	start, count := z.BlockRange(2)
	for i := 0; i < 100; i++ {
		pfn, ok := z.AllocPage(0)
		if !ok {
			t.Fatal("alloc failed")
		}
		if pfn < start || pfn >= start+count {
			t.Fatalf("alloc returned pfn %d outside online block", pfn)
		}
	}
}

func TestOccupiedInBlock(t *testing.T) {
	z := newOnlineZone(t, 2)
	var pfns []PFN
	for i := 0; i < 7; i++ {
		p, _ := z.AllocPage(0)
		pfns = append(pfns, p)
	}
	total := z.OccupiedInBlock(0) + z.OccupiedInBlock(1)
	if total != 7 {
		t.Fatalf("occupied total = %d", total)
	}
	for _, p := range pfns {
		z.FreePage(p, 0)
	}
	if z.OccupiedInBlock(0)+z.OccupiedInBlock(1) != 0 {
		t.Fatal("occupancy not zero after frees")
	}
}

func TestOnlineBlocksList(t *testing.T) {
	z := NewZone("m", ZoneMovable, 0, 4*units.PagesPerBlock)
	z.OnlineBlock(3)
	z.OnlineBlock(1)
	got := z.OnlineBlocks()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("OnlineBlocks = %v", got)
	}
}

func TestZoneKindString(t *testing.T) {
	for k, want := range map[ZoneKind]string{
		ZoneNormal: "Normal", ZoneMovable: "Movable",
		ZoneSqueezyPrivate: "SqueezyPrivate", ZoneSqueezyShared: "SqueezyShared",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

// Property: random alloc/free churn keeps zone accounting exact and a
// full drain allows offlining every block.
func TestZoneChurnProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		z := NewZone("m", ZoneMovable, 0, 2*units.PagesPerBlock)
		z.OnlineBlock(0)
		z.OnlineBlock(1)
		type alloc struct {
			pfn   PFN
			order int
		}
		var live []alloc
		for step := 0; step < 800; step++ {
			if len(live) > 0 && rng.IntN(5) < 2 {
				k := rng.IntN(len(live))
				z.FreePage(live[k].pfn, live[k].order)
				live = append(live[:k], live[k+1:]...)
			} else {
				order := rng.IntN(10)
				if pfn, ok := z.AllocPage(order); ok {
					live = append(live, alloc{pfn, order})
				}
			}
			var liveTotal int64
			for _, l := range live {
				liveTotal += 1 << l.order
			}
			if z.NrAllocated() != liveTotal {
				return false
			}
		}
		for _, l := range live {
			z.FreePage(l.pfn, l.order)
		}
		for i := 0; i < z.Blocks(); i++ {
			if occ := z.IsolateBlock(i); occ != 0 {
				return false
			}
			z.FinishOffline(i)
		}
		return z.NrOnline() == 0 && z.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// zoneProgram onlines every block of z, runs a fixed allocation program
// at mixed orders and logs the PFNs it gets (-1 for a failed request).
func zoneProgram(z *Zone) []PFN {
	for i := 0; i < z.Blocks(); i++ {
		z.OnlineBlock(i)
	}
	var log []PFN
	rng := rand.New(rand.NewPCG(3, 9))
	for i := 0; i < 500; i++ {
		if pfn, ok := z.AllocPage(rng.IntN(10)); ok {
			log = append(log, pfn)
		} else {
			log = append(log, -1)
		}
	}
	return log
}

// replaysTwin runs zoneProgram on z and on a NewZone twin of its
// identity and fails unless the two log the same PFNs.
func replaysTwin(t *testing.T, z *Zone) {
	t.Helper()
	want := zoneProgram(NewZone(z.Name, z.Kind, z.Start(), z.Pages()))
	got := zoneProgram(z)
	if !slices.Equal(got, want) {
		t.Fatalf("zone %q: pooled zone allocates %v..., fresh twin %v...", z.Name, got[:8], want[:8])
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestZoneResetEquivalence runs the same allocation program on a fresh
// zone and on a pooled zone reset from a different identity, retired
// with frees still queued, and requires identical chunk placement.
func TestZoneResetEquivalence(t *testing.T) {
	pool := NewPool()
	dirty := pool.Zone("b", ZoneSqueezyPrivate, 0, 8*units.PagesPerBlock)
	for i := 0; i < dirty.Blocks(); i++ {
		dirty.OnlineBlock(i)
	}
	var held []PFN
	for i := 0; i < 100; i++ {
		pfn, _ := dirty.AllocPage(i % 9)
		held = append(held, pfn)
	}
	for i := 0; i < 100; i += 2 {
		dirty.FreePage(held[i], i%9) // queued: a private zone defers frees
	}
	if len(dirty.queued) == 0 {
		t.Fatal("the retired zone has no queued free")
	}
	pool.Retire(dirty)
	reused := pool.Zone("a", ZoneMovable, units.PagesPerBlock, 4*units.PagesPerBlock)
	if reused != dirty {
		t.Fatal("pool did not hand back the retired zone")
	}
	replaysTwin(t, reused)
}

// TestPoolBestFit requests large, medium and small zones in a rotating
// order and retires each round's zones in request order, so
// last-in-first-out reuse would hand the next round's first request the
// last round's last zone, and a largest-fit rule would hand a small
// request the arena a later large one needs. After the first round
// every request must be served by a pooled arena of unchanged capacity,
// and every pooled zone must replay its NewZone twin exactly. A request
// no arena holds must get the largest.
func TestPoolBestFit(t *testing.T) {
	pool := NewPool()
	capacity := map[*Zone]int64{} // of every zone retired so far
	sizes := []int64{8, 4, 1}     // blocks
	for round := 0; round < 6; round++ {
		var held []*Zone
		for j := range sizes {
			blocks := sizes[(round+j)%len(sizes)]
			start := int64(round) * units.PagesPerBlock
			z := pool.Zone(fmt.Sprintf("r%d-%d", round, blocks), ZoneMovable, start, blocks*units.PagesPerBlock)
			if c, pooled := capacity[z]; round > 0 && (!pooled || z.alloc.Capacity() != c) {
				t.Fatalf("round %d: %d-block request got pooled=%v arena of capacity %d, retired at %d", round, blocks, pooled, z.alloc.Capacity(), c)
			}
			replaysTwin(t, z)
			held = append(held, z)
		}
		for _, z := range held {
			capacity[z] = z.alloc.Capacity()
			pool.Retire(z)
		}
	}
	// When no arena holds the request, the largest, which grows least,
	// serves it.
	var largest int64
	for _, c := range capacity {
		largest = max(largest, c)
	}
	if z := pool.Zone("big", ZoneMovable, 0, 16*units.PagesPerBlock); capacity[z] != largest {
		t.Fatalf("oversized request got the arena of capacity %d, largest is %d", capacity[z], largest)
	}
}

// TestNilPoolConstructsFresh checks the opt-out path.
func TestNilPoolConstructsFresh(t *testing.T) {
	var p *Pool
	z := p.Zone("x", ZoneNormal, 0, units.PagesPerBlock)
	if z == nil || z.Pages() != units.PagesPerBlock {
		t.Fatal("nil pool did not construct a fresh zone")
	}
	p.Retire(z) // must not panic
}

// TestDeferredFreesMatchEagerZone drives a ZoneSqueezyPrivate zone,
// whose frees are queued, and a ZoneMovable reference of the same span,
// whose frees reach the buddy allocator at once, with one seeded
// sequence: block onlining, allocations at random orders, frees of
// random live chunks, instance exits that free them all, shuffles, and
// whole-zone offlines (one step on the
// private zone, per-block isolate and finish on the reference). Every
// allocation must land on the same page frame, and the cheap counters
// must agree after every step. The state queries that replay the queue
// run only every few steps, so frees stay queued across allocations,
// shuffles and onlining in between.
func TestDeferredFreesMatchEagerZone(t *testing.T) {
	const blocks = 2
	span := int64(blocks) * units.PagesPerBlock
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		priv := NewZone("priv", ZoneSqueezyPrivate, units.PagesPerBlock, span)
		ref := NewZone("ref", ZoneMovable, units.PagesPerBlock, span)
		type chunk struct {
			pfn   PFN
			order int
		}
		var live []chunk
		queuedMax := 0
		allOnline := func() bool {
			for i := 0; i < blocks; i++ {
				if !ref.BlockIsOnline(i) {
					return false
				}
			}
			return true
		}
		for step := 0; step < 3000; step++ {
			switch r := rng.IntN(100); {
			case r < 4 && !allOnline():
				i := rng.IntN(blocks)
				for ref.BlockIsOnline(i) {
					i = (i + 1) % blocks
				}
				priv.OnlineBlock(i)
				ref.OnlineBlock(i)
			case r < 6:
				s := rng.Uint64()
				order := rng.IntN(11)
				priv.ShuffleFreeLists(order, rand.New(rand.NewPCG(s, 1)).IntN)
				ref.ShuffleFreeLists(order, rand.New(rand.NewPCG(s, 1)).IntN)
			case r < 8 && allOnline():
				if len(live) == 0 {
					priv.OfflineAll()
					for i := 0; i < blocks; i++ {
						if occ := ref.IsolateBlock(i); occ != 0 {
							t.Fatalf("seed %d step %d: reference block %d has %d occupied pages", seed, step, i, occ)
						}
						ref.FinishOffline(i)
					}
					break
				}
				// Live chunks: the one-step offline must refuse and
				// leave the zone as it was.
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("seed %d step %d: OfflineAll with %d live chunks did not panic", seed, step, len(live))
						}
					}()
					priv.OfflineAll()
				}()
			case r < 10:
				// An instance exit: every live chunk freed, in random order.
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				for _, c := range live {
					priv.FreePage(c.pfn, c.order)
					ref.FreePage(c.pfn, c.order)
				}
				live = live[:0]
			case r < 50 && len(live) > 0:
				j := rng.IntN(len(live))
				c := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				priv.FreePage(c.pfn, c.order)
				ref.FreePage(c.pfn, c.order)
			default:
				order := thpOrder
				if rng.IntN(3) == 0 {
					order = rng.IntN(11)
				}
				got, gotOK := priv.AllocPage(order)
				want, wantOK := ref.AllocPage(order)
				if got != want || gotOK != wantOK {
					t.Fatalf("seed %d step %d: AllocPage(%d) = %d,%v, eager zone %d,%v", seed, step, order, got, gotOK, want, wantOK)
				}
				if gotOK {
					live = append(live, chunk{got, order})
				}
			}
			queuedMax = max(queuedMax, len(priv.queued))
			if priv.NrFree() != ref.NrFree() || priv.NrAllocated() != ref.NrAllocated() || priv.NrOnline() != ref.NrOnline() {
				t.Fatalf("seed %d step %d: free/allocated/online %d/%d/%d, eager zone %d/%d/%d", seed, step,
					priv.NrFree(), priv.NrAllocated(), priv.NrOnline(), ref.NrFree(), ref.NrAllocated(), ref.NrOnline())
			}
			if rng.IntN(40) != 0 {
				continue
			}
			for i := 0; i < blocks; i++ {
				if got, want := priv.FreeInBlock(i), ref.FreeInBlock(i); got != want {
					t.Fatalf("seed %d step %d: block %d free %d, eager zone %d", seed, step, i, got, want)
				}
			}
			for pfn := priv.Start(); pfn < priv.Start()+span; pfn++ {
				o1, ok1 := priv.FreeChunkAt(pfn)
				o2, ok2 := ref.FreeChunkAt(pfn)
				if o1 != o2 || ok1 != ok2 {
					t.Fatalf("seed %d step %d: FreeChunkAt(%d) = %d,%v, eager zone %d,%v", seed, step, pfn, o1, ok1, o2, ok2)
				}
			}
			if err := priv.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if queuedMax < 20 {
			t.Fatalf("seed %d: at most %d frees were ever queued; the sequence does not exercise the queue", seed, queuedMax)
		}
	}
}

// thpOrder is the order of a 2 MiB THP chunk, which the Squeezy
// workloads allocate at.
const thpOrder = 9

// TestQueuedDoubleFreePanics frees one chunk of a private partition
// twice, with its buddy allocated so the first free cannot coalesce.
// Queuing cannot tell, but the replay before the next allocation must
// panic, and so must a one-step offline once the buddy is freed too,
// since the allocated count then goes negative. A double free that a
// live chunk balances leaves that count at 0, so OfflineAll cannot see
// it; guestos's TestOfflineZoneCatchesBalancedDoubleFree checks that
// Kernel.OfflineZone, the caller that proves the zone empty, refuses it.
func TestQueuedDoubleFreePanics(t *testing.T) {
	for name, next := range map[string]func(z *Zone, buddy PFN){
		"replay":  func(z *Zone, _ PFN) { z.AllocPage(0) },
		"offline": func(z *Zone, b PFN) { z.FreePage(b, thpOrder); z.OfflineAll() },
	} {
		t.Run(name, func(t *testing.T) {
			z := NewZone("p", ZoneSqueezyPrivate, 0, units.PagesPerBlock)
			z.OnlineBlock(0)
			a, _ := z.AllocPage(thpOrder)
			b, _ := z.AllocPage(thpOrder)
			if a^b != 1<<thpOrder {
				t.Fatalf("chunks %d and %d are not buddies", a, b)
			}
			z.FreePage(a, thpOrder)
			z.FreePage(a, thpOrder)
			defer func() {
				if recover() == nil {
					t.Fatalf("double free of %d did not panic at the %s", a, name)
				}
			}()
			next(z, b)
		})
	}
}

// TestFreePageChecksQueuedChunk: a private zone queues frees without
// the allocator's span and alignment checks, so FreePage makes them.
func TestFreePageChecksQueuedChunk(t *testing.T) {
	z := NewZone("p", ZoneSqueezyPrivate, units.PagesPerBlock, units.PagesPerBlock)
	z.OnlineBlock(0)
	for name, c := range map[string]struct {
		pfn   PFN
		order int
	}{
		"below the span": {0, 0},
		"past the span":  {2*units.PagesPerBlock - 1, 1},
		"misaligned":     {units.PagesPerBlock + 1, 1},
		"bad order":      {units.PagesPerBlock, 11},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FreePage %s (%d, %d) did not panic", name, c.pfn, c.order)
				}
			}()
			z.FreePage(c.pfn, c.order)
		}()
	}
}
