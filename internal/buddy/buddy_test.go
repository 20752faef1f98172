package buddy

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func newOnline(base, npages int64) *Allocator {
	a := New(base, npages)
	a.FreeRange(base, npages)
	return a
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := newOnline(0, 1024)
	if a.NrFree() != 1024 {
		t.Fatalf("NrFree = %d", a.NrFree())
	}
	pfn, ok := a.Alloc(0)
	if !ok {
		t.Fatal("Alloc failed")
	}
	if a.NrFree() != 1023 {
		t.Fatalf("NrFree after alloc = %d", a.NrFree())
	}
	a.Free(pfn, 0)
	if a.NrFree() != 1024 {
		t.Fatalf("NrFree after free = %d", a.NrFree())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescingRestoresMaxOrder(t *testing.T) {
	a := newOnline(0, 1024)
	var pfns []int64
	for {
		pfn, ok := a.Alloc(0)
		if !ok {
			break
		}
		pfns = append(pfns, pfn)
	}
	if int64(len(pfns)) != 1024 {
		t.Fatalf("allocated %d pages, want 1024", len(pfns))
	}
	for _, p := range pfns {
		a.Free(p, 0)
	}
	if a.NrFree() != 1024 {
		t.Fatalf("NrFree = %d", a.NrFree())
	}
	if got := a.LargestFreeOrder(); got != MaxOrder {
		t.Fatalf("LargestFreeOrder = %d, want %d (coalescing failed)", got, MaxOrder)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitProducesAlignedChunks(t *testing.T) {
	a := newOnline(0, 1<<MaxOrder)
	pfn, ok := a.Alloc(3)
	if !ok {
		t.Fatal("Alloc(3) failed")
	}
	if pfn%8 != 0 {
		t.Fatalf("order-3 chunk at %d not aligned", pfn)
	}
	if a.NrFree() != (1<<MaxOrder)-8 {
		t.Fatalf("NrFree = %d", a.NrFree())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNonZeroBase(t *testing.T) {
	a := newOnline(1<<20, 2048)
	pfn, ok := a.Alloc(0)
	if !ok || pfn < 1<<20 || pfn >= 1<<20+2048 {
		t.Fatalf("Alloc = %d,%v", pfn, ok)
	}
	if !a.Contains(pfn) || a.Contains(0) {
		t.Fatal("Contains misbehaves")
	}
	a.Free(pfn, 0)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustion(t *testing.T) {
	a := newOnline(0, 16)
	for i := 0; i < 16; i++ {
		if _, ok := a.Alloc(0); !ok {
			t.Fatalf("Alloc %d failed early", i)
		}
	}
	if _, ok := a.Alloc(0); ok {
		t.Fatal("Alloc succeeded on empty allocator")
	}
}

func TestFragmentationBlocksHighOrder(t *testing.T) {
	a := newOnline(0, 1024)
	var held []int64
	// Allocate everything as single pages, free every other page:
	// 512 pages free but no order-1 chunk exists.
	var all []int64
	for {
		p, ok := a.Alloc(0)
		if !ok {
			break
		}
		all = append(all, p)
	}
	for i, p := range all {
		if i%2 == 0 {
			a.Free(p, 0)
		} else {
			held = append(held, p)
		}
	}
	if a.NrFree() != 512 {
		t.Fatalf("NrFree = %d", a.NrFree())
	}
	if _, ok := a.Alloc(1); ok {
		t.Fatal("order-1 alloc should fail under checkerboard fragmentation")
	}
	for _, p := range held {
		a.Free(p, 0)
	}
	if _, ok := a.Alloc(MaxOrder); !ok {
		t.Fatal("max-order alloc should succeed after defrag")
	}
}

func TestIsolateRange(t *testing.T) {
	a := newOnline(0, 4096)
	// Allocate 10 pages, then isolate the first 1024-page "block".
	var inBlock, outBlock int
	for i := 0; i < 10; i++ {
		p, ok := a.Alloc(0)
		if !ok {
			t.Fatal("alloc failed")
		}
		if p < 1024 {
			inBlock++
		} else {
			outBlock++
		}
	}
	freeBefore := a.FreeInRange(0, 1024)
	isolated := a.IsolateRange(0, 1024)
	if isolated != freeBefore {
		t.Fatalf("isolated %d, FreeInRange said %d", isolated, freeBefore)
	}
	if got := a.FreeInRange(0, 1024); got != 0 {
		t.Fatalf("FreeInRange after isolation = %d", got)
	}
	// Allocations now never land in the isolated range.
	for i := 0; i < 100; i++ {
		p, ok := a.Alloc(0)
		if !ok {
			break
		}
		if p < 1024 {
			t.Fatalf("alloc returned isolated page %d", p)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIsolateThenReturn(t *testing.T) {
	a := newOnline(0, 2048)
	isolated := a.IsolateRange(1024, 1024)
	if isolated != 1024 {
		t.Fatalf("isolated %d, want 1024", isolated)
	}
	if a.NrFree() != 1024 {
		t.Fatalf("NrFree = %d", a.NrFree())
	}
	// Abort the offline: return the pages.
	a.FreeRange(1024, 1024)
	if a.NrFree() != 2048 {
		t.Fatalf("NrFree after return = %d", a.NrFree())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeRangeUnaligned(t *testing.T) {
	a := New(0, 10000)
	a.FreeRange(3, 4097) // deliberately awkward
	if a.NrFree() != 4097 {
		t.Fatalf("NrFree = %d", a.NrFree())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Freeing the head of any free chunk panics, whatever order the free
// names and however the chunk came to be free.
func TestDoubleFreePanics(t *testing.T) {
	for _, c := range []struct {
		name  string
		setup func(t *testing.T) (a *Allocator, pfn int64, order int)
	}{
		{"same order", func(t *testing.T) (*Allocator, int64, int) {
			a := newOnline(0, 64)
			p, _ := a.Alloc(0)
			a.Free(p, 0)
			return a, p, 0
		}},
		{"head of a free chunk of another order", func(t *testing.T) (*Allocator, int64, int) {
			a := New(0, 1024)
			a.FreeRange(0, 512) // one free order-9 chunk at 0
			return a, 0, 0
		}},
		{"lower half of a merged pair", func(t *testing.T) (*Allocator, int64, int) {
			a := newOnline(0, 16)
			lo, _ := a.Alloc(3)
			hi, _ := a.Alloc(3)
			a.Free(lo, 3)
			a.Free(hi, 3) // merges with lo into the order-4 chunk at 0
			if lo != 0 || a.LargestFreeOrder() != 4 {
				t.Fatalf("setup: lower half at %d, largest free order %d", lo, a.LargestFreeOrder())
			}
			return a, lo, 3
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, pfn, order := c.setup(t)
			defer func() {
				if recover() == nil {
					t.Fatalf("Free(%d, %d) of a free chunk head did not panic", pfn, order)
				}
			}()
			a.Free(pfn, order)
		})
	}
}

func TestMisalignedFreePanics(t *testing.T) {
	a := New(0, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected misaligned-free panic")
		}
	}()
	a.Free(1, 3)
}

func TestOutOfSpanFreePanics(t *testing.T) {
	a := New(0, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-span panic")
		}
	}()
	a.Free(64, 0)
}

func TestBadOrderPanics(t *testing.T) {
	a := newOnline(0, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected bad-order panic")
		}
	}()
	a.Alloc(MaxOrder + 1)
}

func TestLIFOReuse(t *testing.T) {
	a := newOnline(0, 1024)
	p1, _ := a.Alloc(0)
	a.Free(p1, 0)
	p2, _ := a.Alloc(0)
	if p1 != p2 {
		t.Fatalf("expected LIFO reuse: got %d then %d", p1, p2)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		a := newOnline(0, 4096)
		rng := rand.New(rand.NewPCG(7, 7))
		var live []int64
		var trace []int64
		for i := 0; i < 2000; i++ {
			if len(live) > 0 && rng.IntN(2) == 0 {
				k := rng.IntN(len(live))
				a.Free(live[k], 0)
				live = append(live[:k], live[k+1:]...)
			} else if p, ok := a.Alloc(0); ok {
				live = append(live, p)
				trace = append(trace, p)
			}
		}
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatal("nondeterministic trace length")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace diverges at %d: %d vs %d", i, t1[i], t2[i])
		}
	}
}

// Property: after an arbitrary interleaving of allocs and frees, the
// free count is exact, invariants hold, and freeing everything restores
// a fully coalesced allocator.
func TestRandomizedInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		const span = 8192
		a := newOnline(0, span)
		type alloc struct {
			pfn   int64
			order int
		}
		var live []alloc
		var liveTotal int64
		for step := 0; step < 3000; step++ {
			if len(live) > 0 && rng.IntN(10) < 4 {
				k := rng.IntN(len(live))
				a.Free(live[k].pfn, live[k].order)
				liveTotal -= 1 << live[k].order
				live = append(live[:k], live[k+1:]...)
			} else {
				order := rng.IntN(MaxOrder + 1)
				if pfn, ok := a.Alloc(order); ok {
					live = append(live, alloc{pfn, order})
					liveTotal += 1 << order
				}
			}
			if a.NrFree() != span-liveTotal {
				return false
			}
		}
		if err := a.CheckInvariants(); err != nil {
			return false
		}
		for _, l := range live {
			a.Free(l.pfn, l.order)
		}
		if a.NrFree() != span {
			return false
		}
		return a.LargestFreeOrder() == MaxOrder && a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: no two live allocations overlap.
func TestNoOverlappingAllocations(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		const span = 4096
		a := newOnline(0, span)
		owner := make([]int, span) // 0 = free, else allocation id
		id := 0
		type alloc struct {
			pfn   int64
			order int
			id    int
		}
		var live []alloc
		for step := 0; step < 1500; step++ {
			if len(live) > 0 && rng.IntN(3) == 0 {
				k := rng.IntN(len(live))
				l := live[k]
				for i := l.pfn; i < l.pfn+1<<l.order; i++ {
					if owner[i] != l.id {
						return false
					}
					owner[i] = 0
				}
				a.Free(l.pfn, l.order)
				live = append(live[:k], live[k+1:]...)
			} else {
				order := rng.IntN(4)
				pfn, ok := a.Alloc(order)
				if !ok {
					continue
				}
				id++
				for i := pfn; i < pfn+1<<order; i++ {
					if owner[i] != 0 {
						return false // overlap!
					}
					owner[i] = id
				}
				live = append(live, alloc{pfn, order, id})
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFreeInRangePartialOverlap(t *testing.T) {
	a := newOnline(0, 2048)
	// Whole span free; count free pages in an arbitrary sub-range.
	if got := a.FreeInRange(100, 200); got != 200 {
		t.Fatalf("FreeInRange = %d, want 200", got)
	}
}

func TestLargestFreeOrderEmpty(t *testing.T) {
	a := New(0, 64)
	if got := a.LargestFreeOrder(); got != -1 {
		t.Fatalf("LargestFreeOrder on absent memory = %d, want -1", got)
	}
}

// Region counters must agree with the O(span) scan across a random
// alloc/free/isolate history, and region-aligned FreeInRange must give
// the same answer through the counter fast path as through the scan.
func TestRegionCountersMatchScan(t *testing.T) {
	const region = 1 << MaxOrder // smallest legal region, max churn
	a := New(0, 8*region)
	a.TrackRegions(region)
	a.FreeRange(0, 8*region)
	rng := rand.New(rand.NewPCG(3, 9))
	var held [][2]int64 // pfn, order
	for step := 0; step < 2000; step++ {
		switch rng.IntN(3) {
		case 0:
			order := rng.IntN(MaxOrder + 1)
			if pfn, ok := a.Alloc(order); ok {
				held = append(held, [2]int64{pfn, int64(order)})
			}
		case 1:
			if len(held) > 0 {
				i := rng.IntN(len(held))
				a.Free(held[i][0], int(held[i][1]))
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}
		case 2:
			r := int64(rng.IntN(8))
			// Sub-region range: exercises the scan fallback.
			if got, want := a.FreeInRange(r*region+region/4, region/2), scanFree(a, r*region+region/4, region/2); got != want {
				t.Fatalf("step %d: sub-region FreeInRange = %d, scan = %d", step, got, want)
			}
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		r := int64(rng.IntN(8))
		if got, want := a.FreeInRange(r*region, region), scanFree(a, r*region, region); got != want {
			t.Fatalf("step %d: region FreeInRange = %d, scan = %d", step, got, want)
		}
	}
	// Isolation empties regions; counters must follow.
	for _, h := range held {
		a.Free(h[0], int(h[1]))
	}
	for r := int64(0); r < 8; r++ {
		if got := a.IsolateRange(r*region, region); got != region {
			t.Fatalf("isolating full region %d got %d pages", r, got)
		}
		if got := a.FreeInRange(r*region, region); got != 0 {
			t.Fatalf("region %d reports %d free after isolation", r, got)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// scanFree counts free pages in a range via FreeChunkAt, independent of
// both FreeInRange code paths.
func scanFree(a *Allocator, pfn, count int64) int64 {
	var n int64
	end := pfn + count
	for i := pfn - pfn%(1<<MaxOrder); i < end; i++ {
		order, ok := a.FreeChunkAt(i)
		if !ok {
			continue
		}
		lo, hi := i, i+(1<<order)
		if lo < pfn {
			lo = pfn
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			n += hi - lo
		}
		i += (1 << order) - 1
	}
	return n
}

// TestResetEquivalence replays an allocation program on a freshly
// constructed allocator and on one reset after heavy prior use
// (including a different span) and requires identical behaviour —
// the reset invariant the pooled-world layer depends on.
func TestResetEquivalence(t *testing.T) {
	program := func(a *Allocator) []int64 {
		a.FreeRange(a.Base(), a.Span())
		var log []int64
		rng := rand.New(rand.NewPCG(11, 13))
		var live [][2]int64 // pfn, order
		for i := 0; i < 2000; i++ {
			if rng.IntN(3) < 2 {
				order := rng.IntN(MaxOrder + 1)
				if pfn, ok := a.Alloc(order); ok {
					live = append(live, [2]int64{pfn, int64(order)})
					log = append(log, pfn)
				} else {
					log = append(log, -1)
				}
			} else if len(live) > 0 {
				i := rng.IntN(len(live))
				c := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				a.Free(c[0], int(c[1]))
				log = append(log, -2)
			}
		}
		log = append(log, a.NrFree())
		return log
	}

	fresh := New(1024, 1<<15)
	fresh.TrackRegions(1 << 12)
	want := program(fresh)

	reused := New(0, 1<<16) // different base and larger span
	reused.TrackRegions(1 << 12)
	reused.FreeRange(0, 1<<16)
	for i := 0; i < 500; i++ { // dirty it
		reused.Alloc(i % MaxOrder)
	}
	reused.Reset(1024, 1<<15)
	if reused.NrFree() != 0 {
		t.Fatalf("reset allocator reports %d free pages", reused.NrFree())
	}
	got := program(reused)
	if len(got) != len(want) {
		t.Fatalf("log lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("program diverged at step %d: reset %d, fresh %d", i, got[i], want[i])
		}
	}
	if err := reused.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResetGrowsSpan verifies a reset to a larger span than the
// original allocation works.
func TestResetGrowsSpan(t *testing.T) {
	a := New(0, 1<<10)
	a.TrackRegions(1 << 10)
	a.FreeRange(0, 1<<10)
	a.Reset(0, 1<<14)
	a.FreeRange(0, 1<<14)
	if a.NrFree() != 1<<14 {
		t.Fatalf("free %d after grow-reset, want %d", a.NrFree(), 1<<14)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ordOf derives a byte-per-page order map from the per-order bitmaps:
// ord[i] is k+1 when page base+i heads a free order-k chunk, else 0.
func ordOf(a *Allocator) []int8 {
	ord := make([]int8, a.npages)
	for k, bm := range a.byOrder {
		for w, word := range bm {
			for ; word != 0; word &= word - 1 {
				ord[(int64(w)*64+int64(bits.TrailingZeros64(word)))<<k] = int8(k) + 1
			}
		}
	}
	return ord
}

// refIsolateRange is the page-walk reference for IsolateRange: it
// visits every page of the range in order and detaches each free chunk
// it finds, panicking on a chunk that straddles the range's end.
func refIsolateRange(a *Allocator, pfn, count int64) int64 {
	ord := ordOf(a)
	start, end := pfn-a.base, pfn-a.base+count
	var isolated int64
	for i := start; i < end; i++ {
		k := ord[i]
		if k == 0 {
			continue
		}
		sz := int64(1) << (k - 1)
		if i+sz > end {
			panic("buddy: reference isolation straddles")
		}
		a.clearHead(i, int(k)-1)
		isolated += sz
		a.free -= sz
		a.creditRegion(i, -sz)
		i += sz - 1
	}
	return isolated
}

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// TestIsolateRangeMatchesPageWalk runs random Alloc/Free/FreeRange/
// IsolateRange programs on twin allocators, one isolating through the
// head bitmap and one through the page-walk reference, with Resets to
// other spans between programs. Every result, free count and region
// counter must agree.
func TestIsolateRangeMatchesPageWalk(t *testing.T) {
	const region = 1 << MaxOrder
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		fast, ref := New(0, region), New(0, region)
		fast.TrackRegions(region)
		ref.TrackRegions(region)
		for prog := 0; prog < 4; prog++ {
			regions := int64(rng.IntN(12) + 1)
			base := int64(rng.IntN(4)) * region
			fast.Reset(base, regions*region)
			ref.Reset(base, regions*region)
			online := make([]bool, regions)
			var live [][2]int64 // pfn, order
			for step := 0; step < 400; step++ {
				r := int64(rng.IntN(int(regions)))
				rstart := base + r*region
				switch op := rng.IntN(10); {
				case op < 2: // online an absent region
					if !online[r] {
						online[r] = true
						fast.FreeRange(rstart, region)
						ref.FreeRange(rstart, region)
					}
				case op < 5:
					order := rng.IntN(MaxOrder + 1)
					p1, ok1 := fast.Alloc(order)
					p2, ok2 := ref.Alloc(order)
					if p1 != p2 || ok1 != ok2 {
						t.Logf("step %d: Alloc(%d) = %d,%v vs reference %d,%v", step, order, p1, ok1, p2, ok2)
						return false
					}
					if ok1 {
						live = append(live, [2]int64{p1, int64(order)})
					}
				case op < 8:
					if len(live) > 0 {
						i := rng.IntN(len(live))
						fast.Free(live[i][0], int(live[i][1]))
						ref.Free(live[i][0], int(live[i][1]))
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				case op < 9: // isolate an unaligned range; it may cut a chunk
					// Both isolate in ascending order and stop at the same
					// straddling chunk, so twins stay identical after one.
					lo := base + int64(rng.IntN(int(regions*region)))
					n := int64(rng.IntN(int(base+regions*region-lo))) + 1
					var got, want int64
					gotPanic := panicOf(func() { got = fast.IsolateRange(lo, n) }) != nil
					wantPanic := panicOf(func() { want = refIsolateRange(ref, lo, n) }) != nil
					if got != want || gotPanic != wantPanic {
						t.Logf("step %d: IsolateRange(%d, %d) = %d (panic %v), reference %d (panic %v)", step, lo, n, got, gotPanic, want, wantPanic)
						return false
					}
				default: // isolate a run of whole regions
					n := int64(rng.IntN(int(regions-r))) + 1
					// A region isolated while wholly free is absent
					// afterwards and can be onlined again.
					for j := r; j < r+n; j++ {
						if fast.regionFree[j] == region {
							online[j] = false
						}
					}
					got := fast.IsolateRange(rstart, n*region)
					want := refIsolateRange(ref, rstart, n*region)
					if got != want {
						t.Logf("step %d: IsolateRange(%d, %d) = %d, reference %d", step, rstart, n*region, got, want)
						return false
					}
				}
				if fast.NrFree() != ref.NrFree() {
					t.Logf("step %d: NrFree %d vs reference %d", step, fast.NrFree(), ref.NrFree())
					return false
				}
				for j := range fast.regionFree {
					if fast.regionFree[j] != ref.regionFree[j] {
						t.Logf("step %d: region %d free %d vs reference %d", step, j, fast.regionFree[j], ref.regionFree[j])
						return false
					}
				}
			}
			if err := fast.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// An isolation range that cuts a free chunk must still panic, whether
// the range ends inside the chunk or starts before a chunk it overruns.
func TestIsolateStraddlePanics(t *testing.T) {
	for _, r := range [][2]int64{{0, 512}, {512, 1024}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IsolateRange(%d, %d) across a free order-%d chunk did not panic", r[0], r[1], MaxOrder)
				}
			}()
			a := newOnline(0, 2048)
			a.IsolateRange(r[0], r[1])
		}()
	}
}

// refShuffle is the reserve-then-free reference for ShuffleFreeLists:
// it Allocs every free page 2^order pages at a time (the largest order
// not exceeding what is left, falling back under fragmentation), then
// Frees the pieces in draw's swap-remove order.
func refShuffle(a *Allocator, order int, draw func(int) int) {
	var pieces [][2]int64 // pfn, order
	for remaining := a.NrFree(); remaining > 0; {
		o := order
		for int64(1)<<o > remaining {
			o--
		}
		pfn, ok := a.Alloc(o)
		for !ok && o > 0 {
			o--
			pfn, ok = a.Alloc(o)
		}
		if !ok {
			break
		}
		pieces = append(pieces, [2]int64{pfn, int64(o)})
		remaining -= 1 << o
	}
	for len(pieces) > 0 {
		i := draw(len(pieces))
		p := pieces[i]
		last := len(pieces) - 1
		pieces[i] = pieces[last]
		pieces = pieces[:last]
		a.Free(p[0], int(p[1]))
	}
}

// shuffleProgram drives a region-tracked allocator through a random mix
// of partial and whole onlining (FreeRange), Alloc, Free and
// IsolateRange, the operations that shape a zone's free set.
func shuffleProgram(seed uint64) *Allocator {
	const region, regions = 2048, 8
	rng := rand.New(rand.NewPCG(seed, 0x5f1))
	a := New(3*region, region*regions)
	a.TrackRegions(region)
	online := make([]bool, regions)
	var live [][2]int64 // pfn, order
	for step := 0; step < 600; step++ {
		switch op := rng.IntN(10); {
		case op < 1:
			r := rng.IntN(regions)
			if online[r] {
				continue
			}
			online[r] = true
			// Onlining part of a region leaves unaligned edges.
			lo, hi := int64(0), int64(region)
			if rng.IntN(2) == 0 {
				lo, hi = int64(rng.IntN(region/2)), int64(region/2+rng.IntN(region/2)+1)
			}
			a.FreeRange(a.Base()+int64(r)*region+lo, hi-lo)
		case op < 5:
			// Even seeds allocate at uniform orders, odd seeds mostly
			// small chunks, so free sets range from nearly empty and
			// fragmented to about half the span.
			o := rng.IntN(MaxOrder + 1)
			if seed%2 == 1 {
				o = rng.IntN(o + 1)
			}
			if pfn, ok := a.Alloc(o); ok {
				live = append(live, [2]int64{pfn, int64(o)})
			}
		case op < 9:
			if len(live) == 0 {
				continue
			}
			i := rng.IntN(len(live))
			c := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			a.Free(c[0], int(c[1]))
		default:
			// Any 2^MaxOrder-aligned window: no chunk straddles it.
			lo := a.Base() + int64(rng.IntN(region*regions>>MaxOrder))<<MaxOrder
			a.IsolateRange(lo, 1<<MaxOrder)
			// Undo the isolation when nothing in the window is
			// allocated, as an aborted offline does. Isolation left the
			// window's stack entries stale; re-onlining pushes the same
			// heads again, so the stacks hold duplicate valid entries.
			if !slices.ContainsFunc(live, func(c [2]int64) bool { return c[0] >= lo && c[0] < lo+1<<MaxOrder }) && rng.IntN(2) == 0 {
				a.FreeRange(lo, 1<<MaxOrder)
				online[(lo-a.Base())/region] = true // never onlined twice
			}
		}
	}
	return a
}

// TestShuffleFreeListsMatchesReference shuffles twin allocators built
// by one random program, one with ShuffleFreeLists and one with the
// reserve-then-free reference, at orders below, at and above the
// largest free order, twice in a row. The shuffle must leave the order
// map and the counters as they were, draw exactly the reference's sequence,
// and leave stacks that pop alike: a later alloc-everything pass at
// mixed orders returns the same PFN sequence.
func TestShuffleFreeListsMatchesReference(t *testing.T) {
	f := func(seed uint64, pick1, pick2 uint8) bool {
		a, b := shuffleProgram(seed), shuffleProgram(seed)
		ra, rb := rand.New(rand.NewPCG(seed, 7)), rand.New(rand.NewPCG(seed, 7))
		for _, pick := range []uint8{pick1, pick2} {
			// One below, at or above the largest free order, or any.
			order := int(pick/4) % (MaxOrder + 1)
			if pick%4 < 3 {
				order = min(max(a.LargestFreeOrder()+int(pick%4)-1, 0), MaxOrder)
			}
			ord, free, regions := ordOf(a), a.NrFree(), slices.Clone(a.regionFree)
			a.ShuffleFreeLists(order, ra.IntN)
			refShuffle(b, order, rb.IntN)
			if !slices.Equal(ordOf(a), ord) || a.NrFree() != free || !slices.Equal(a.regionFree, regions) {
				t.Logf("order %d: shuffle changed ord or counters", order)
				return false
			}
			if !slices.Equal(ordOf(b), ord) || b.NrFree() != free || !slices.Equal(b.regionFree, regions) {
				t.Logf("order %d: reference changed ord or counters", order)
				return false
			}
			for _, x := range []*Allocator{a, b} {
				if err := x.CheckInvariants(); err != nil {
					t.Logf("order %d: %v", order, err)
					return false
				}
			}
			if x, y := ra.Uint64(), rb.Uint64(); x != y {
				t.Logf("order %d: next draw %#x vs reference %#x", order, x, y)
				return false
			}
		}
		orders := []int{0, 9, 3, MaxOrder, 1, 5}
		for i := 0; a.NrFree() > 0; i++ {
			o := orders[i%len(orders)]
			pa, oka := a.Alloc(o)
			pb, okb := b.Alloc(o)
			if pa != pb || oka != okb {
				t.Logf("alloc %d at order %d: %d,%v vs reference %d,%v", i, o, pa, oka, pb, okb)
				return false
			}
		}
		return b.NrFree() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Flipping any one bit of either bitmap, inside the span or past it,
// must make CheckInvariants fail.
func TestCheckInvariantsCatchesBitFlips(t *testing.T) {
	const span = 4000 // not a multiple of 64: the last words have spare bits
	a := newOnline(0, span)
	for _, o := range []int{0, 3, 9, 1, 0, 5} {
		a.Alloc(o)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	flip := func(name string, word *uint64, bit int64) {
		t.Helper()
		*word ^= 1 << bit
		if a.CheckInvariants() == nil {
			t.Errorf("%s: flipped bit %d went unnoticed", name, bit)
		}
		*word ^= 1 << bit
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("%s: restoring bit %d: %v", name, bit, err)
		}
	}
	for _, i := range []int64{0, 1, 8, 512, 1024, 2048, 3072, 3968, span - 1, span + 5} {
		flip(fmt.Sprintf("head bit of page %d", i), &a.heads[i/64], i%64)
		for k := range a.byOrder {
			if j := i >> k; j/64 < int64(len(a.byOrder[k])) {
				flip(fmt.Sprintf("order-%d bit of page %d", k, i), &a.byOrder[k][j/64], j%64)
			}
		}
	}
	// A head past the span that both bitmaps agree on.
	const past = span + 5
	a.heads[past/64] |= 1 << (past % 64)
	a.byOrder[0][past/64] |= 1 << (past % 64)
	if a.CheckInvariants() == nil {
		t.Errorf("an order-0 head at page %d past the span went unnoticed", past)
	}
}

// refAllocator is the byte-per-page encoding the bitmaps replaced, kept
// as a differential reference: ord[i] is k+1 when page base+i heads a
// free order-k chunk and 0 otherwise, and every range operation walks
// ord page by page.
type refAllocator struct {
	base, npages int64
	ord          []int8
	stacks       [MaxOrder + 1][]int64
	free         int64
	regionPages  int64
	regionFree   []int64
}

func newRef(base, npages, regionPages int64) *refAllocator {
	r := &refAllocator{regionPages: regionPages}
	r.Reset(base, npages)
	return r
}

func (r *refAllocator) Reset(base, npages int64) {
	r.base, r.npages, r.ord, r.free = base, npages, make([]int8, npages), 0
	for k := range r.stacks {
		r.stacks[k] = r.stacks[k][:0]
	}
	if rp := r.regionPages; rp != 0 {
		r.regionFree = make([]int64, (npages+rp-1)/rp)
	}
}

func (r *refAllocator) credit(i, delta int64) {
	if r.regionPages != 0 {
		r.regionFree[i/r.regionPages] += delta
	}
}

func (r *refAllocator) push(i int64, k int) {
	r.ord[i] = int8(k) + 1
	r.stacks[k] = append(r.stacks[k], i)
}

func (r *refAllocator) pop(k int) (int64, bool) {
	for st := r.stacks[k]; len(st) > 0; {
		head := st[len(st)-1]
		st = st[:len(st)-1]
		r.stacks[k] = st
		if r.ord[head] == int8(k)+1 {
			r.ord[head] = 0
			return head, true
		}
	}
	return 0, false
}

func (r *refAllocator) Alloc(order int) (int64, bool) {
	for k := order; k <= MaxOrder; k++ {
		if head, ok := r.pop(k); ok {
			for j := k; j > order; j-- {
				r.push(head+1<<(j-1), j-1)
			}
			r.free -= 1 << order
			r.credit(head, -(1 << order))
			return r.base + head, true
		}
	}
	return 0, false
}

func (r *refAllocator) Free(pfn int64, order int) {
	i := pfn - r.base
	if i < 0 || i+(1<<order) > r.npages {
		panic(fmt.Sprintf("buddy: Free(%d, %d) outside span [%d,%d)", pfn, order, r.base, r.base+r.npages))
	}
	if i&((1<<order)-1) != 0 {
		panic(fmt.Sprintf("buddy: Free(%d, %d) misaligned", pfn, order))
	}
	if r.ord[i] != 0 {
		panic(fmt.Sprintf("buddy: double free of pfn %d", pfn))
	}
	r.credit(i, 1<<order)
	k := order
	for ; k < MaxOrder; k++ {
		bud := i ^ (1 << k)
		if bud+(1<<k) > r.npages || r.ord[bud] != int8(k)+1 {
			break
		}
		r.ord[bud] = 0
		i = min(i, bud)
	}
	r.push(i, k)
	r.free += 1 << order
}

func (r *refAllocator) FreeRange(pfn, count int64) {
	for count > 0 {
		k := MaxOrder
		for k > 0 && ((pfn-r.base)&((1<<k)-1) != 0 || int64(1)<<k > count) {
			k--
		}
		r.Free(pfn, k)
		pfn += 1 << k
		count -= 1 << k
	}
}

func (r *refAllocator) IsolateRange(pfn, count int64) int64 {
	start, end := pfn-r.base, pfn-r.base+count
	var isolated int64
	for i := start; i < end; i++ {
		k := r.ord[i]
		if k == 0 {
			continue
		}
		sz := int64(1) << (k - 1)
		if i+sz > end {
			panic(fmt.Sprintf("buddy: free chunk at %d order %d straddles isolation boundary", r.base+i, k-1))
		}
		r.ord[i] = 0
		isolated += sz
		r.free -= sz
		r.credit(i, -sz)
		i += sz - 1
	}
	return isolated
}

func (r *refAllocator) FreeInRange(pfn, count int64) int64 {
	start, end := max(pfn-r.base, 0), min(pfn-r.base+count, r.npages)
	var n int64
	for i := start &^ ((1 << MaxOrder) - 1); i < end; i++ {
		if k := r.ord[i]; k != 0 {
			sz := int64(1) << (k - 1)
			n += max(min(i+sz, end)-max(i, start), 0)
			i += sz - 1
		}
	}
	return n
}

func (r *refAllocator) FreeChunkAt(pfn int64) (int, bool) {
	i := pfn - r.base
	if i < 0 || i >= r.npages || r.ord[i] == 0 {
		return 0, false
	}
	return int(r.ord[i]) - 1, true
}

func (r *refAllocator) LargestFreeOrder() int {
	for k := MaxOrder; k >= 0; k-- {
		for _, head := range r.stacks[k] {
			if r.ord[head] == int8(k)+1 {
				return k
			}
		}
	}
	return -1
}

// ShuffleFreeLists takes chunks off the stacks in reservation order,
// marking each taken chunk by clearing its ord byte, and re-pushes each
// when draw picks its last piece.
func (r *refAllocator) ShuffleFreeLists(order int, draw func(n int) int) {
	type chunk struct {
		head        int64
		order, left int
	}
	var chunks []chunk
	var pieces []int
	take := func(k int) {
		st := r.stacks[k]
		for j := len(st) - 1; j >= 0; j-- {
			i := st[j]
			if r.ord[i] != int8(k)+1 {
				continue
			}
			r.ord[i] = 0
			n := 1
			if k > order {
				n = 1 << (k - order)
			}
			for range n {
				pieces = append(pieces, len(chunks))
			}
			chunks = append(chunks, chunk{i, k, n})
		}
		r.stacks[k] = st[:0]
	}
	for k := order; k <= MaxOrder; k++ {
		take(k)
	}
	for k := order - 1; k >= 0; k-- {
		take(k)
	}
	for n := len(pieces); n > 0; n-- {
		j := draw(n)
		c := &chunks[pieces[j]]
		pieces[j] = pieces[n-1]
		if c.left--; c.left == 0 {
			r.push(c.head, c.order)
		}
	}
}

// TestMatchesByteMapReference drives the allocator and the byte-per-
// page reference with the same random programs of Alloc, Free,
// FreeRange, IsolateRange (aligned and not, straddling included),
// ShuffleFreeLists, double frees of free chunk heads at any order, and
// Resets that grow and shrink the span, with and without region
// tracking and over spans that are not a multiple of any word or chunk
// size. After every step, every answer either gives must agree: PFNs,
// panics, free and region counts, the largest free order, FreeChunkAt
// at every page and FreeInRange over random ranges.
func TestMatchesByteMapReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xb1))
		drawA, drawR := rand.New(rand.NewPCG(seed, 2)), rand.New(rand.NewPCG(seed, 2))
		span := func() int64 {
			if rng.IntN(2) == 0 {
				return int64(rng.IntN(6)+1) << MaxOrder
			}
			return int64(rng.IntN(6000) + 1)
		}
		var regionPages int64
		if seed%2 == 0 {
			regionPages = 1 << MaxOrder
		}
		base, npages := rng.Int64N(1<<20), span()
		a := New(base, npages)
		if regionPages != 0 {
			a.TrackRegions(regionPages)
		}
		ref := newRef(base, npages, regionPages)
		absent := make([]bool, npages)
		for i := range absent {
			absent[i] = true
		}
		var live [][2]int64 // pfn, order
		// freeMap marks the pages the reference holds free.
		freeMap := func() []bool {
			m := make([]bool, ref.npages)
			for i := int64(0); i < ref.npages; i++ {
				if k := ref.ord[i]; k != 0 {
					for j := range int64(1) << (k - 1) {
						m[i+j] = true
					}
				}
			}
			return m
		}
		for step := 0; step < 300; step++ {
			var what string
			switch op := rng.IntN(40); {
			case op < 6: // online a run of absent pages
				lo := rng.Int64N(npages)
				n := int64(0)
				for want := rng.Int64N(3000) + 1; n < want && lo+n < npages && absent[lo+n]; n++ {
					absent[lo+n] = false
				}
				what = fmt.Sprintf("FreeRange(%d, %d)", base+lo, n)
				a.FreeRange(base+lo, n)
				ref.FreeRange(base+lo, n)
			case op < 18:
				// Seeds 2 and 3 mod 4 allocate mostly small chunks, which
				// fragments the free set and grows the stacks past what
				// Reset clears entry by entry.
				o := rng.IntN(MaxOrder + 1)
				if seed%4 >= 2 {
					o = rng.IntN(o + 1)
				}
				p1, ok1 := a.Alloc(o)
				p2, ok2 := ref.Alloc(o)
				what = fmt.Sprintf("Alloc(%d)", o)
				if p1 != p2 || ok1 != ok2 {
					t.Logf("seed %d step %d: %s = %d,%v, reference %d,%v", seed, step, what, p1, ok1, p2, ok2)
					return false
				}
				if ok1 {
					live = append(live, [2]int64{p1, int64(o)})
				}
			case op < 28:
				if len(live) == 0 {
					continue
				}
				i := rng.IntN(len(live))
				c := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				what = fmt.Sprintf("Free(%d, %d)", c[0], c[1])
				a.Free(c[0], int(c[1]))
				ref.Free(c[0], int(c[1]))
			case op < 31: // free a free chunk's head again, at any order
				k := rng.IntN(MaxOrder + 1)
				if len(ref.stacks[k]) == 0 {
					continue
				}
				p := ref.base + ref.stacks[k][rng.IntN(len(ref.stacks[k]))]
				if _, ok := ref.FreeChunkAt(p); !ok {
					continue // stale entry: the page may be allocated or absent
				}
				o := rng.IntN(MaxOrder + 1)
				what = fmt.Sprintf("double Free(%d, %d)", p, o)
				got, want := panicOf(func() { a.Free(p, o) }), panicOf(func() { ref.Free(p, o) })
				if want == nil || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Logf("seed %d step %d: %s panicked with %v, reference %v", seed, step, what, got, want)
					return false
				}
			case op < 36: // isolate a block-aligned or arbitrary range
				lo, n := rng.Int64N(npages), int64(0)
				if rng.IntN(2) == 0 {
					lo &^= 1<<MaxOrder - 1
					n = min(int64(rng.IntN(3)+1)<<MaxOrder, npages-lo)
				} else {
					n = rng.Int64N(npages-lo) + 1
				}
				what = fmt.Sprintf("IsolateRange(%d, %d)", base+lo, n)
				before := freeMap()
				var got, want int64
				gotP := panicOf(func() { got = a.IsolateRange(base+lo, n) })
				wantP := panicOf(func() { want = ref.IsolateRange(base+lo, n) })
				if got != want || fmt.Sprint(gotP) != fmt.Sprint(wantP) {
					t.Logf("seed %d step %d: %s = %d (panic %v), reference %d (panic %v)", seed, step, what, got, gotP, want, wantP)
					return false
				}
				for i, f := range freeMap() {
					if before[i] && !f {
						absent[i] = true
					}
				}
			case op < 38:
				o := rng.IntN(MaxOrder + 1)
				what = fmt.Sprintf("ShuffleFreeLists(%d)", o)
				a.ShuffleFreeLists(o, drawA.IntN)
				ref.ShuffleFreeLists(o, drawR.IntN)
				if x, y := drawA.Uint64(), drawR.Uint64(); x != y {
					t.Logf("seed %d step %d: %s: next draw %#x, reference %#x", seed, step, what, x, y)
					return false
				}
			default: // a new span, larger or smaller
				base, npages = rng.Int64N(1<<20), span()
				what = fmt.Sprintf("Reset(%d, %d)", base, npages)
				a.Reset(base, npages)
				ref.Reset(base, npages)
				absent = make([]bool, npages)
				for i := range absent {
					absent[i] = true
				}
				live = live[:0]
			}
			if err := a.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: after %s: %v", seed, step, what, err)
				return false
			}
			if a.NrFree() != ref.free || a.LargestFreeOrder() != ref.LargestFreeOrder() || !slices.Equal(a.regionFree, ref.regionFree) {
				t.Logf("seed %d step %d: after %s: free %d, largest order %d, regions %v; reference %d, %d, %v",
					seed, step, what, a.NrFree(), a.LargestFreeOrder(), a.regionFree, ref.free, ref.LargestFreeOrder(), ref.regionFree)
				return false
			}
			for p := base - 1; p <= base+npages; p++ {
				o1, ok1 := a.FreeChunkAt(p)
				o2, ok2 := ref.FreeChunkAt(p)
				if o1 != o2 || ok1 != ok2 {
					t.Logf("seed %d step %d: after %s: FreeChunkAt(%d) = %d,%v, reference %d,%v", seed, step, what, p, o1, ok1, o2, ok2)
					return false
				}
			}
			for range 4 {
				lo := base + rng.Int64N(npages+2) - 1
				n := rng.Int64N(npages + 2)
				if rng.IntN(4) == 0 && regionPages != 0 { // region-aligned: the counter path
					lo = base + rng.Int64N(npages)/regionPages*regionPages
					n = int64(rng.IntN(3)+1) * regionPages
				}
				if got, want := a.FreeInRange(lo, n), ref.FreeInRange(lo, n); got != want {
					t.Logf("seed %d step %d: after %s: FreeInRange(%d, %d) = %d, reference %d", seed, step, what, lo, n, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

// TestFreeRangeOverFreeRegionPanics onlines a tracked region twice.
// The second FreeRange must take the checked per-chunk path, because
// the region already holds free pages, and panic on the double free
// rather than push every chunk a second time.
func TestFreeRangeOverFreeRegionPanics(t *testing.T) {
	const region = 4 << MaxOrder
	a := New(0, 2*region)
	a.TrackRegions(region)
	a.FreeRange(region, region)
	defer func() {
		if recover() == nil {
			t.Fatal("onlining a free region again did not panic")
		}
	}()
	a.FreeRange(region, region)
}
