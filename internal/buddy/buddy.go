package buddy

import (
	"fmt"
	"math/bits"
)

// MaxOrder is the largest allocation order (inclusive); order 10 chunks
// are 4 MiB of 4 KiB pages, matching Linux's MAX_PAGE_ORDER.
const MaxOrder = 10

// ord encoding: 0 means "not the head of a free chunk"; k+1 means "head
// of a free chunk of order k". Using 0 as the empty state lets New hand
// back a zeroed slice without an O(span) fill.
const noChunk = int8(0)

// Allocator is a buddy allocator over a contiguous page-frame span. The
// zero value is not usable; call New.
type Allocator struct {
	base   int64
	npages int64

	// ord[i] is the encoded order of the free chunk whose head is page
	// base+i (see noChunk).
	ord []int8

	// heads is the free-chunk-head bitmap: bit i is set iff ord[i] !=
	// noChunk, so range scans skip occupied pages a word at a time.
	heads []uint64

	// stacks[k] holds candidate heads (relative indexes) of free chunks
	// of order k. Entries are validated against ord on pop (lazy
	// deletion), so stale entries are harmless.
	stacks [MaxOrder + 1][]int64

	free int64 // pages currently free

	// Region tracking (TrackRegions): regionPages is the region size in
	// pages (0 = disabled) and regionFree[r] the free pages in region r.
	regionPages int64
	regionFree  []int64
}

// New creates an allocator spanning npages page frames starting at page
// frame number base. All pages start absent (not free): online memory by
// calling FreeRange.
func New(base, npages int64) *Allocator {
	if npages <= 0 {
		panic(fmt.Sprintf("buddy: non-positive span %d", npages))
	}
	return &Allocator{base: base, npages: npages, ord: make([]int8, npages), heads: make([]uint64, headWords(npages))}
}

// headWords is the length of the heads bitmap for a span of npages.
func headWords(npages int64) int64 { return (npages + 63) / 64 }

// Reset re-dimensions the allocator to a fresh [base, base+npages)
// span while reusing its storage: the ord span and head bitmap are
// re-zeroed in place when capacity allows (growing only when the new
// span is larger), stacks are truncated, and region tracking — if it
// was enabled — survives at the same region size with cleared
// counters. All pages start absent again, exactly as after New, so a
// reset allocator behaves identically to a freshly constructed one.
func (a *Allocator) Reset(base, npages int64) {
	if npages <= 0 {
		panic(fmt.Sprintf("buddy: non-positive span %d", npages))
	}
	a.base = base
	a.npages = npages
	// ord and heads are always allocated together, so cap(heads) ==
	// headWords(cap(ord)) and the heads re-slice below stays in cap.
	if int64(cap(a.ord)) >= npages {
		// Restore the all-zero state. Every nonzero ord position (and
		// so every set head bit) is the head of a free chunk, and every
		// head was recorded in a stack (pop and coalescing only ever
		// clear positions), so zeroing the stack entries restores a
		// sparse span without touching the untouched bulk — which the
		// OS then never has to back; heavily-churned spans whose stacks
		// grew past an eighth of the extent fall back to one memclr.
		// Both leave the entire backing arrays zero, so any re-slice
		// within cap starts clean.
		var entries int64
		for k := range a.stacks {
			entries += int64(len(a.stacks[k]))
		}
		if entries <= int64(len(a.ord))/8 {
			for k := range a.stacks {
				for _, i := range a.stacks[k] {
					a.ord[i] = noChunk
					a.heads[i/64] = 0
				}
			}
		} else {
			clear(a.ord)
			clear(a.heads)
		}
		a.ord = a.ord[:npages]
		a.heads = a.heads[:headWords(npages)]
	} else {
		a.ord = make([]int8, npages)
		a.heads = make([]uint64, headWords(npages))
	}
	for k := range a.stacks {
		a.stacks[k] = a.stacks[k][:0]
	}
	a.free = 0
	if rp := a.regionPages; rp != 0 {
		regions := (npages + rp - 1) / rp
		if int64(cap(a.regionFree)) >= regions {
			a.regionFree = a.regionFree[:regions]
			clear(a.regionFree)
		} else {
			a.regionFree = make([]int64, regions)
		}
	}
}

// TrackRegions enables per-region free-page counters at the given
// region size, which must be a power-of-two multiple of the largest
// chunk size (so no chunk ever straddles a region boundary) and must be
// enabled before any pages are freed into the allocator.
func (a *Allocator) TrackRegions(regionPages int64) {
	if regionPages < 1<<MaxOrder || regionPages&(regionPages-1) != 0 {
		panic(fmt.Sprintf("buddy: bad region size %d", regionPages))
	}
	if a.free != 0 {
		panic("buddy: TrackRegions on a populated allocator")
	}
	a.regionPages = regionPages
	a.regionFree = make([]int64, (a.npages+regionPages-1)/regionPages)
}

// Base returns the first page frame number of the span.
func (a *Allocator) Base() int64 { return a.base }

// Span returns the number of page frames the allocator covers.
func (a *Allocator) Span() int64 { return a.npages }

// NrFree returns the number of free pages.
func (a *Allocator) NrFree() int64 { return a.free }

// Capacity returns the largest span, in pages, that Reset can take
// without growing the allocator's storage.
func (a *Allocator) Capacity() int64 { return int64(cap(a.ord)) }

// Contains reports whether pfn lies within the allocator's span.
func (a *Allocator) Contains(pfn int64) bool {
	return pfn >= a.base && pfn < a.base+a.npages
}

// creditRegion adjusts the free counter of the region containing
// relative page i.
func (a *Allocator) creditRegion(i, delta int64) {
	if a.regionPages != 0 {
		a.regionFree[i/a.regionPages] += delta
	}
}

// Alloc removes a free chunk of 2^order pages and returns its first page
// frame number. ok is false when no chunk of that size can be carved
// (external fragmentation or exhaustion).
func (a *Allocator) Alloc(order int) (pfn int64, ok bool) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("buddy: bad order %d", order))
	}
	for k := order; k <= MaxOrder; k++ {
		head, found := a.pop(k)
		if !found {
			continue
		}
		// Split down to the requested order, pushing upper halves.
		for j := k; j > order; j-- {
			half := head + 1<<(j-1)
			a.push(half, j-1)
		}
		a.free -= 1 << order
		a.creditRegion(head, -(1 << order))
		return a.base + head, true
	}
	return 0, false
}

// Free returns a chunk of 2^order pages starting at pfn to the
// allocator, coalescing with free buddies. The chunk must have been
// handed out by Alloc at the same order, or be new memory coming online
// (via FreeRange, which calls Free with aligned fragments). Freeing a
// page that is already free corrupts the allocator and panics when
// detectable.
func (a *Allocator) Free(pfn int64, order int) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("buddy: bad order %d", order))
	}
	i := pfn - a.base
	if i < 0 || i+(1<<order) > a.npages {
		panic(fmt.Sprintf("buddy: Free(%d, %d) outside span [%d,%d)", pfn, order, a.base, a.base+a.npages))
	}
	if i&((1<<order)-1) != 0 {
		panic(fmt.Sprintf("buddy: Free(%d, %d) misaligned", pfn, order))
	}
	if a.ord[i] != noChunk {
		panic(fmt.Sprintf("buddy: double free of pfn %d", pfn))
	}
	a.creditRegion(i, 1<<order)
	k := order
	for k < MaxOrder {
		bud := i ^ (1 << k)
		if bud+(1<<k) > a.npages || a.ord[bud] != int8(k)+1 {
			break
		}
		// Detach the buddy (its stack entry goes stale) and merge.
		a.clearHead(bud)
		if bud < i {
			i = bud
		}
		k++
	}
	a.push(i, k)
	a.free += 1 << order
}

// FreeRange onlines an arbitrary (not necessarily aligned or power-of-
// two) range of pages, decomposing it into maximal aligned chunks.
func (a *Allocator) FreeRange(pfn, count int64) {
	i := pfn
	remaining := count
	for remaining > 0 {
		k := MaxOrder
		for k > 0 && ((i-a.base)&((1<<k)-1) != 0 || int64(1)<<k > remaining) {
			k--
		}
		a.Free(i, k)
		i += 1 << k
		remaining -= 1 << k
	}
}

// IsolateRange removes every free chunk lying entirely inside
// [pfn, pfn+count) from the allocator, as the MIGRATE_ISOLATE phase of
// memory offlining does. It returns the number of pages isolated. Pages
// in the range that are currently allocated are untouched — the caller
// must migrate and FreeRange-return them elsewhere, or hand them back
// with Free after the offline is aborted.
//
// The range must be aligned such that no free chunk straddles its
// boundary; hotplug blocks (128 MiB, 4 MiB-aligned) always satisfy this
// for MaxOrder 10. IsolateRange panics if a straddling chunk is found.
func (a *Allocator) IsolateRange(pfn, count int64) int64 {
	start := pfn - a.base
	end := start + count
	if start < 0 || end > a.npages {
		panic(fmt.Sprintf("buddy: IsolateRange(%d,%d) outside span", pfn, count))
	}
	// Visit only free-chunk heads: fully occupied (or offline) regions
	// are skipped by their counter, the rest of the head bitmap a word
	// at a time, and a free chunk holds no other head, so cost is
	// O(free chunks + words left uncovered), not O(pages).
	var isolated int64
	for i := start; i < end; {
		if rp := a.regionPages; rp != 0 && i%rp == 0 && i+rp <= end && a.regionFree[i/rp] == 0 {
			i += rp
			continue
		}
		word := a.heads[i/64] >> (i % 64)
		if word == 0 {
			i = (i/64 + 1) * 64
			continue
		}
		i += int64(bits.TrailingZeros64(word))
		if i >= end {
			break
		}
		k := a.ord[i]
		sz := int64(1) << (k - 1)
		if i+sz > end {
			panic(fmt.Sprintf("buddy: free chunk at %d order %d straddles isolation boundary", a.base+i, k-1))
		}
		a.clearHead(i) // stack entry goes stale
		isolated += sz
		a.free -= sz
		a.creditRegion(i, -sz)
		i += sz
	}
	return isolated
}

// FreeInRange returns the number of free pages inside [pfn, pfn+count)
// without modifying the allocator. Region-aligned ranges are answered
// from the region counters in O(regions).
func (a *Allocator) FreeInRange(pfn, count int64) int64 {
	start := pfn - a.base
	end := start + count
	if start < 0 {
		start = 0
	}
	if end > a.npages {
		end = a.npages
	}
	if rp := a.regionPages; rp != 0 && start%rp == 0 && (end%rp == 0 || end == a.npages) {
		var n int64
		for r := start / rp; r*rp < end; r++ {
			n += a.regionFree[r]
		}
		return n
	}
	// A free chunk covering [start, ...) may have its head before start;
	// chunks are order-aligned, so scanning from the max-order boundary
	// below start finds every chunk that can overlap the range.
	scan := start &^ ((1 << MaxOrder) - 1)
	var n int64
	for i := scan; i < end; i++ {
		k := a.ord[i]
		if k == noChunk {
			continue
		}
		sz := int64(1) << (k - 1)
		lo, hi := i, i+sz
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			n += hi - lo
		}
		i += sz - 1
	}
	return n
}

// FreeChunkAt reports whether pfn is the head of a free chunk, and if
// so that chunk's order. Interior pages of a free chunk, allocated
// pages, and absent pages all return ok=false.
func (a *Allocator) FreeChunkAt(pfn int64) (order int, ok bool) {
	i := pfn - a.base
	if i < 0 || i >= a.npages {
		return 0, false
	}
	if k := a.ord[i]; k != noChunk {
		return int(k) - 1, true
	}
	return 0, false
}

// LargestFreeOrder returns the highest order with at least one free
// chunk, or -1 if the allocator is empty.
func (a *Allocator) LargestFreeOrder() int {
	for k := MaxOrder; k >= 0; k-- {
		for _, head := range a.stacks[k] {
			if a.ord[head] == int8(k)+1 {
				return k
			}
		}
	}
	return -1
}

// ShuffleFreeLists reorders the free stacks exactly as reserving every
// free page and freeing the reservation in random order would: the
// reservation Allocs 2^order pages at a time (whole chunks below that
// order, largest first, as a reservation falling back under
// fragmentation does), and the free order is draw's swap-remove
// sequence, one draw(n) per reserved piece with n the pieces still
// held. Only the stacks change. The free set is always maximally
// coalesced (CheckInvariants asserts it), so freeing the pieces merges
// each back into the chunk it came from and no further: ord, the
// region counters and the free count come out as they went in. What
// the round trip leaves behind is each chunk re-pushed at its own order
// when its last piece is freed, plus stale entries, which no pop ever
// returns. So the shuffle takes every chunk off the stacks in the
// order Alloc would reserve it, runs the same draws over its pieces,
// and re-pushes each chunk as its last piece is drawn, without
// splitting, merging or writing ord.
func (a *Allocator) ShuffleFreeLists(order int, draw func(n int) int) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("buddy: bad order %d", order))
	}
	// chunk is a free chunk taken off the stacks, with the number of
	// its pieces not yet drawn. pieces indexes chunks, one entry per
	// piece; chunks below order add one piece each beyond free>>order.
	type chunk struct {
		head  int64
		order int
		left  int
	}
	chunks := make([]chunk, 0, a.free>>order)
	pieces := make([]int, 0, a.free>>order)
	// take empties stack k in pop order. A chunk's head bit is cleared
	// as it is taken, so an older duplicate entry below it is skipped,
	// as pop would skip it once the newer entry had been popped.
	take := func(k int) {
		st := a.stacks[k]
		for j := len(st) - 1; j >= 0; j-- {
			i := st[j]
			if a.heads[i/64]&(1<<(i%64)) == 0 || a.ord[i] != int8(k)+1 {
				continue
			}
			a.heads[i/64] &^= 1 << (i % 64)
			// Alloc(order) cuts a larger chunk into ascending pieces.
			n := 1
			if k > order {
				n = 1 << (k - order)
			}
			for range n {
				pieces = append(pieces, len(chunks))
			}
			chunks = append(chunks, chunk{head: i, order: k, left: n})
		}
		a.stacks[k] = st[:0]
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
			a.heads[c.head/64] |= 1 << (c.head % 64)
			a.stacks[c.order] = append(a.stacks[c.order], c.head)
		}
	}
}

func (a *Allocator) push(i int64, order int) {
	a.ord[i] = int8(order) + 1
	a.heads[i/64] |= 1 << (i % 64)
	a.stacks[order] = append(a.stacks[order], i)
}

// clearHead unmarks page i as a free-chunk head in both ord and the
// head bitmap. Any stack entry for it goes stale.
func (a *Allocator) clearHead(i int64) {
	a.ord[i] = noChunk
	a.heads[i/64] &^= 1 << (i % 64)
}

func (a *Allocator) pop(order int) (int64, bool) {
	st := a.stacks[order]
	for len(st) > 0 {
		head := st[len(st)-1]
		st = st[:len(st)-1]
		if a.ord[head] == int8(order)+1 {
			a.clearHead(head)
			a.stacks[order] = st
			return head, true
		}
	}
	a.stacks[order] = st
	return 0, false
}

// CheckInvariants validates internal consistency — the free count
// matches the chunks recorded in ord, no free chunk overlaps another,
// every free chunk is order-aligned, the head bitmap marks exactly the
// chunk heads, every chunk has an entry in its order's stack (Reset's
// sparse clear relies on it), the free set is maximally coalesced (no
// free chunk below MaxOrder has a free buddy of its order;
// ShuffleFreeLists relies on it), and the region counters (when
// enabled) agree with a fresh count. It is O(span) and intended for
// tests.
func (a *Allocator) CheckInvariants() error {
	if int64(len(a.heads)) != headWords(a.npages) {
		return fmt.Errorf("head bitmap has %d words, span needs %d", len(a.heads), headWords(a.npages))
	}
	for i := int64(0); i < int64(len(a.heads))*64; i++ {
		set := a.heads[i/64]&(1<<(i%64)) != 0
		if head := i < a.npages && a.ord[i] != noChunk; set != head {
			return fmt.Errorf("head bitmap bit %d = %v, ord says head = %v", a.base+i, set, head)
		}
	}
	stacked := make([]bool, a.npages)
	for k, st := range a.stacks {
		for _, i := range st {
			if a.ord[i] == int8(k)+1 {
				stacked[i] = true
			}
		}
	}
	var counted int64
	regions := make([]int64, len(a.regionFree))
	i := int64(0)
	for i < a.npages {
		k := a.ord[i]
		if k == noChunk {
			i++
			continue
		}
		sz := int64(1) << (k - 1)
		if i&(sz-1) != 0 {
			return fmt.Errorf("chunk at %d order %d misaligned", a.base+i, k-1)
		}
		if i+sz > a.npages {
			return fmt.Errorf("chunk at %d order %d overruns span", a.base+i, k-1)
		}
		if !stacked[i] {
			return fmt.Errorf("chunk at %d order %d has no stack entry", a.base+i, k-1)
		}
		if bud := i ^ sz; k-1 < MaxOrder && bud+sz <= a.npages && a.ord[bud] == k {
			return fmt.Errorf("chunk at %d order %d not merged with its free buddy", a.base+i, k-1)
		}
		for j := i + 1; j < i+sz; j++ {
			if a.ord[j] != noChunk {
				return fmt.Errorf("nested chunk head at %d inside chunk at %d", a.base+j, a.base+i)
			}
		}
		counted += sz
		if a.regionPages != 0 {
			regions[i/a.regionPages] += sz
		}
		i += sz
	}
	if counted != a.free {
		return fmt.Errorf("free count %d != chunks total %d", a.free, counted)
	}
	for r, want := range regions {
		if a.regionFree[r] != want {
			return fmt.Errorf("region %d free count %d != counted %d", r, a.regionFree[r], want)
		}
	}
	return nil
}
