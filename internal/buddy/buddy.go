package buddy

import (
	"fmt"
	"math/bits"
	"slices"
)

// MaxOrder is the largest allocation order (inclusive); order 10 chunks
// are 4 MiB of 4 KiB pages, matching Linux's MAX_PAGE_ORDER.
const MaxOrder = 10

// thpOrder is the order of a 2 MiB transparent huge page. Heads of this
// order and above live only in their order bitmap, not in heads.
const thpOrder = MaxOrder - 1

// Allocator is a buddy allocator over a contiguous page-frame span. The
// zero value is not usable; call New.
type Allocator struct {
	base   int64
	npages int64

	// words backs heads and byOrder (see layout): one allocation whose
	// prefix the current span uses. Everything past the prefix is
	// zero, so Reset can lay a new span out over it without clearing.
	// capPages is the span words was sized for.
	words    []uint64
	capPages int64

	// heads is the free-chunk-head bitmap below thpOrder: bit i is set
	// iff page base+i heads a free chunk of an order below thpOrder, so
	// range scans skip occupied pages a word at a time. THP and
	// max-order heads are only in byOrder: onlining a block pushes
	// nothing but max-order chunks, and huge-page allocation splits and
	// frees order-9 ones, 64 to a byOrder word, where a heads bit each
	// would cost a cache line each. isFreeHead tests all three.
	heads []uint64

	// byOrder[k] is the order-k head bitmap: bit i>>k is set iff page
	// base+i heads a free order-k chunk. Order-k heads are 2^k pages
	// apart, so one word covers 64 of them.
	byOrder [MaxOrder + 1][]uint64

	// stacks[k] holds candidate heads (relative indexes) of free chunks
	// of order k. Entries are validated against byOrder on pop (lazy
	// deletion), so stale entries are harmless.
	stacks [MaxOrder + 1][]int64

	free int64 // pages currently free

	// shufChunks and shufPieces are ShuffleFreeLists' scratch, kept
	// (with their capacity, across Reset too) so a warm re-scramble
	// allocates nothing. A chunk packs head<<shufHeadShift |
	// order<<shufLeftBits | pieces not yet drawn; a piece is the index
	// of its chunk.
	shufChunks []uint64
	shufPieces []int32

	// Region tracking (TrackRegions): regionShift is log2 of the region
	// size in pages (0 = disabled; TrackRegions requires a power of two
	// of at least 2^MaxOrder), so region arithmetic is shifts and masks,
	// and regionFree[r] is the free pages in region r.
	regionShift uint
	regionFree  []int64
}

// New creates an allocator spanning npages page frames starting at page
// frame number base. All pages start absent (not free): online memory by
// calling FreeRange.
func New(base, npages int64) *Allocator {
	a := &Allocator{}
	a.Reset(base, npages)
	return a
}

// headWords is the length of a bitmap with one bit per slot for n slots.
func headWords(n int64) int64 { return (n + 63) / 64 }

// orderWords is the length of byOrder[k] for a span of npages: one bit
// per order-k-aligned page, including a last chunk cut short by the
// span's end, so every page's order-k slot is in range.
func orderWords(npages int64, k int) int64 { return headWords((npages-1)>>k + 1) }

// bitmapWords is the length of words for a span of npages.
func bitmapWords(npages int64) int64 {
	n := headWords(npages)
	for k := 0; k <= MaxOrder; k++ {
		n += orderWords(npages, k)
	}
	return n
}

// layout re-slices words for a span of npages and carves heads and
// byOrder out of it. The new prefix must be within cap(words).
func (a *Allocator) layout(npages int64) {
	a.words = a.words[:bitmapWords(npages)]
	n := headWords(npages)
	a.heads = a.words[:n:n]
	for k := range a.byOrder {
		w := orderWords(npages, k)
		a.byOrder[k] = a.words[n : n+w : n+w]
		n += w
	}
}

// Reset re-dimensions the allocator to a fresh [base, base+npages)
// span while reusing its storage: the bitmaps are re-zeroed in place
// when capacity allows (growing only when the new span is larger),
// stacks are truncated, and region tracking — if it was enabled —
// survives at the same region size with cleared counters. All pages
// start absent again, exactly as after New, so a reset allocator
// behaves identically to a freshly constructed one. A sparse span's
// reset costs O(stack entries), so resetting a span with nothing
// allocated is the cheap way to withdraw all its memory at once.
func (a *Allocator) Reset(base, npages int64) {
	if npages <= 0 {
		panic(fmt.Sprintf("buddy: non-positive span %d", npages))
	}
	a.base = base
	a.npages = npages
	if npages <= a.capPages {
		// Restore the all-zero state. Every set bit belongs to the head
		// of a free chunk, and every head was recorded in a stack (pop,
		// coalescing and isolation only ever clear bits), so zeroing
		// the words of each stack entry (its order word, plus its heads
		// word below thpOrder) restores a sparse span without touching
		// the untouched bulk — which the OS then never has to back.
		// Once that would write more words than the bitmaps hold, one
		// memclr is cheaper. Both leave the entire backing array zero,
		// so any layout within cap starts clean.
		var entries int64
		for k := range a.stacks {
			entries += int64(len(a.stacks[k]))
		}
		if 2*entries <= int64(len(a.words)) {
			for k, st := range a.stacks {
				for _, i := range st {
					if k < thpOrder {
						a.heads[i/64] = 0
					}
					a.byOrder[k][i>>k/64] = 0
				}
			}
		} else {
			clear(a.words)
		}
	} else {
		a.words = make([]uint64, bitmapWords(npages))
		a.capPages = npages
	}
	a.layout(npages)
	for k := range a.stacks {
		a.stacks[k] = a.stacks[k][:0]
	}
	a.free = 0
	if sh := a.regionShift; sh != 0 {
		regions := (npages + 1<<sh - 1) >> sh
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
	a.regionShift = uint(bits.TrailingZeros64(uint64(regionPages)))
	a.regionFree = make([]int64, (a.npages+regionPages-1)>>a.regionShift)
}

// Base returns the first page frame number of the span.
func (a *Allocator) Base() int64 { return a.base }

// Span returns the number of page frames the allocator covers.
func (a *Allocator) Span() int64 { return a.npages }

// NrFree returns the number of free pages.
func (a *Allocator) NrFree() int64 { return a.free }

// Capacity returns the largest span, in pages, that Reset can take
// without growing the allocator's storage.
func (a *Allocator) Capacity() int64 { return a.capPages }

// Contains reports whether pfn lies within the allocator's span.
func (a *Allocator) Contains(pfn int64) bool {
	return pfn >= a.base && pfn < a.base+a.npages
}

// creditRegion adjusts the free counter of the region containing
// relative page i.
func (a *Allocator) creditRegion(i, delta int64) {
	if sh := a.regionShift; sh != 0 {
		a.regionFree[i>>sh] += delta
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
	if a.isFreeHead(i) {
		panic(fmt.Sprintf("buddy: double free of pfn %d", pfn))
	}
	a.creditRegion(i, 1<<order)
	k := order
	for k < MaxOrder {
		bud := i ^ (1 << k)
		if bud+(1<<k) > a.npages || !a.isHead(bud, k) {
			break
		}
		// Detach the buddy (its stack entry goes stale) and merge.
		a.clearHead(bud, k)
		if bud < i {
			i = bud
		}
		k++
	}
	a.push(i, k)
	a.free += 1 << order
}

// FreeRange onlines an arbitrary (not necessarily aligned or power-of-
// two) range of pages, decomposing it into maximal aligned chunks and
// freeing them in ascending order. A whole tracked region with no free
// page (a block coming online) is freed in one pass: no chunk in it
// can be a double free, and a max-order chunk never merges, so its
// chunks are pushed directly and its counter credited once.
func (a *Allocator) FreeRange(pfn, count int64) {
	i := pfn - a.base
	end := i + count
	if i < 0 || end > a.npages {
		panic(fmt.Sprintf("buddy: FreeRange(%d, %d) outside span [%d,%d)", pfn, count, a.base, a.base+a.npages))
	}
	for i < end {
		if sh := a.regionShift; sh != 0 && i&(1<<sh-1) == 0 && i+1<<sh <= end && a.regionFree[i>>sh] == 0 {
			for c := i; c < i+1<<sh; c += 1 << MaxOrder {
				a.push(c, MaxOrder)
			}
			a.regionFree[i>>sh] = 1 << sh
			a.free += 1 << sh
			i += 1 << sh
			continue
		}
		k := MaxOrder
		for k > 0 && (i&((1<<k)-1) != 0 || int64(1)<<k > end-i) {
			k--
		}
		a.Free(a.base+i, k)
		i += 1 << k
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
		if sh := a.regionShift; sh != 0 && i&(1<<sh-1) == 0 && i+1<<sh <= end && a.regionFree[i>>sh] == 0 {
			i += 1 << sh
			continue
		}
		var k int
		if i, k = a.nextHead(i); k < 0 {
			continue
		}
		if i >= end {
			break
		}
		sz := int64(1) << k
		if i+sz > end {
			panic(fmt.Sprintf("buddy: free chunk at %d order %d straddles isolation boundary", a.base+i, k))
		}
		a.clearHead(i, k) // stack entry goes stale
		isolated += sz
		a.free -= sz
		a.creditRegion(i, -sz)
		i += sz
	}
	if a.free == 0 {
		// No head is left, so every stack entry is stale: drop them
		// rather than let plug/unplug cycles pile them up.
		for k := range a.stacks {
			a.stacks[k] = a.stacks[k][:0]
		}
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
	if sh := a.regionShift; sh != 0 && start&(1<<sh-1) == 0 && (end&(1<<sh-1) == 0 || end == a.npages) {
		var n int64
		for r := start >> sh; r<<sh < end; r++ {
			n += a.regionFree[r]
		}
		return n
	}
	// A free chunk covering [start, ...) may have its head before start;
	// chunks are order-aligned, so scanning from the max-order boundary
	// below start finds every chunk that can overlap the range.
	var n int64
	for i := start &^ ((1 << MaxOrder) - 1); i < end; {
		var k int
		if i, k = a.nextHead(i); k < 0 {
			continue
		}
		if i >= end {
			break
		}
		sz := int64(1) << k
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
		i += sz
	}
	return n
}

// FreeChunkAt reports whether pfn is the head of a free chunk, and if
// so that chunk's order. Interior pages of a free chunk, allocated
// pages, and absent pages all return ok=false.
func (a *Allocator) FreeChunkAt(pfn int64) (order int, ok bool) {
	i := pfn - a.base
	if i < 0 || i >= a.npages || !a.isFreeHead(i) {
		return 0, false
	}
	return a.orderAt(i), true
}

// LargestFreeOrder returns the highest order with at least one free
// chunk, or -1 if the allocator is empty.
func (a *Allocator) LargestFreeOrder() int {
	for k := MaxOrder; k >= 0; k-- {
		for _, head := range a.stacks[k] {
			if a.isHead(head, k) {
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
// each back into the chunk it came from and no further: the bitmaps,
// the region counters and the free count come out as they went in. What
// the round trip leaves behind is each chunk re-pushed at its own order
// when its last piece is freed, plus stale entries, which no pop ever
// returns. So the shuffle takes every chunk off the stacks in the
// order Alloc would reserve it, runs the same draws over its pieces,
// and re-pushes each chunk as its last piece is drawn, without
// splitting, merging or touching the any-order head bitmap.
func (a *Allocator) ShuffleFreeLists(order int, draw func(n int) int) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("buddy: bad order %d", order))
	}
	// There are at least free>>order pieces: a chunk at or above order
	// gives 2^(k-order), and each one below it one more.
	a.shufChunks = slices.Grow(a.shufChunks[:0], int(a.free>>order))
	a.shufPieces = slices.Grow(a.shufPieces[:0], int(a.free>>order))
	for k := order; k <= MaxOrder; k++ {
		a.takeStack(k, order)
	}
	for k := order - 1; k >= 0; k-- {
		a.takeStack(k, order)
	}
	chunks, pieces := a.shufChunks, a.shufPieces
	for n := len(pieces); n > 0; n-- {
		j := draw(n)
		c := &chunks[pieces[j]]
		pieces[j] = pieces[n-1]
		if *c--; *c&(1<<shufLeftBits-1) == 0 {
			head, k := int64(*c>>shufHeadShift), int(*c>>shufLeftBits&(1<<shufOrderBits-1))
			a.setOrderBit(head, k, true)
			a.stacks[k] = append(a.stacks[k], head)
		}
	}
}

// The packing of a ShuffleFreeLists chunk: up to 1<<MaxOrder pieces
// left, an order up to MaxOrder, and the head above them.
const (
	shufLeftBits  = MaxOrder + 1
	shufOrderBits = 4
	shufHeadShift = shufLeftBits + shufOrderBits
)

// takeStack empties stack k in pop order into the shuffle scratch,
// with one piece per order-sized piece of each chunk (one for a chunk
// below order): Alloc(order) cuts a larger chunk into ascending pieces.
// A chunk's order-k bit is cleared as it is taken, so an older
// duplicate entry below it is skipped, as pop would skip it once the
// newer entry had been popped.
func (a *Allocator) takeStack(k, order int) {
	n := 1
	if k > order {
		n = 1 << (k - order)
	}
	st := a.stacks[k]
	for j := len(st) - 1; j >= 0; j-- {
		i := st[j]
		if !a.isHead(i, k) {
			continue
		}
		a.setOrderBit(i, k, false)
		c := int32(len(a.shufChunks))
		for range n {
			a.shufPieces = append(a.shufPieces, c)
		}
		a.shufChunks = append(a.shufChunks, uint64(i)<<shufHeadShift|uint64(k)<<shufLeftBits|uint64(n))
	}
	a.stacks[k] = st[:0]
}

// nextHead is one step of a range scan from page i. It returns i and
// its order when a THP or max-order chunk heads there; else the first
// head of a smaller chunk in the rest of i's heads word, with its
// order; else the start of the next word and -1. THP and max-order
// heads are not in heads, but every THP boundary starts a word and no
// smaller chunk crosses one, so a scan that steps through nextHead
// tests each boundary it passes.
func (a *Allocator) nextHead(i int64) (int64, int) {
	if i&(1<<thpOrder-1) == 0 {
		if i&(1<<MaxOrder-1) == 0 && a.isHead(i, MaxOrder) {
			return i, MaxOrder
		}
		if a.isHead(i, thpOrder) {
			return i, thpOrder
		}
	}
	word := a.heads[i/64] >> (i % 64)
	if word == 0 {
		return (i/64 + 1) * 64, -1
	}
	i += int64(bits.TrailingZeros64(word))
	return i, a.orderAt(i)
}

// isFreeHead reports whether page i heads a free chunk of any order.
func (a *Allocator) isFreeHead(i int64) bool {
	return a.heads[i/64]&(1<<(i%64)) != 0 ||
		i&(1<<thpOrder-1) == 0 && (a.isHead(i, thpOrder) || i&(1<<MaxOrder-1) == 0 && a.isHead(i, MaxOrder))
}

// isHead reports whether page i heads a free order-k chunk.
func (a *Allocator) isHead(i int64, k int) bool {
	j := i >> k
	return a.byOrder[k][j/64]&(1<<(j%64)) != 0
}

// setOrderBit sets or clears page i's bit in the order-k head bitmap.
func (a *Allocator) setOrderBit(i int64, k int, on bool) {
	j := i >> k
	if on {
		a.byOrder[k][j/64] |= 1 << (j % 64)
	} else {
		a.byOrder[k][j/64] &^= 1 << (j % 64)
	}
}

// orderAt returns the order of the free chunk headed by page i, or -1
// if i heads none. A chunk is aligned to its size, so only orders up to
// i's alignment are tried.
func (a *Allocator) orderAt(i int64) int {
	for k := min(bits.TrailingZeros64(uint64(i)), MaxOrder); k >= 0; k-- {
		if a.isHead(i, k) {
			return k
		}
	}
	return -1
}

func (a *Allocator) push(i int64, order int) {
	a.setOrderBit(i, order, true)
	if order < thpOrder {
		a.heads[i/64] |= 1 << (i % 64)
	}
	a.stacks[order] = append(a.stacks[order], i)
}

// clearHead unmarks page i as the head of a free order-k chunk in both
// bitmaps. Any stack entry for it goes stale.
func (a *Allocator) clearHead(i int64, k int) {
	a.setOrderBit(i, k, false)
	if k < thpOrder {
		a.heads[i/64] &^= 1 << (i % 64)
	}
}

func (a *Allocator) pop(order int) (int64, bool) {
	st := a.stacks[order]
	for len(st) > 0 {
		head := st[len(st)-1]
		st = st[:len(st)-1]
		if a.isHead(head, order) {
			a.clearHead(head, order)
			a.stacks[order] = st
			return head, true
		}
	}
	a.stacks[order] = st
	return 0, false
}

// CheckInvariants validates internal consistency — the bitmaps agree
// (every order bit sits on a page that carries exactly one order, and
// has its heads bit below thpOrder; every heads bit sits on a page
// whose order is below thpOrder; no bit is set beyond the span; and
// the storage past the span's words is zero, as Reset's layout relies
// on), the free count matches the chunks they record, no free chunk
// overlaps another or overruns the span, every chunk has an entry in
// its order's stack (Reset's sparse clear relies on it), the free set
// is maximally coalesced (no free chunk below MaxOrder has a free
// buddy of its order; ShuffleFreeLists relies on it), and the region
// counters (when enabled) agree with a fresh count. It is O(capacity)
// and intended for tests.
func (a *Allocator) CheckInvariants() error {
	if int64(len(a.words)) != bitmapWords(a.npages) || int64(len(a.heads)) != headWords(a.npages) {
		return fmt.Errorf("bitmaps have %d words (%d head words), span needs %d (%d)", len(a.words), len(a.heads), bitmapWords(a.npages), headWords(a.npages))
	}
	for j, w := range a.words[len(a.words):cap(a.words)] {
		if w != 0 {
			return fmt.Errorf("bitmap word %d past the span is %#x", len(a.words)+j, w)
		}
	}
	headBit := func(i int64) bool { return a.heads[i/64]&(1<<(i%64)) != 0 }
	for k, bm := range a.byOrder {
		if int64(len(bm)) != orderWords(a.npages, k) {
			return fmt.Errorf("order-%d bitmap has %d words, span needs %d", k, len(bm), orderWords(a.npages, k))
		}
		for w, word := range bm {
			for ; word != 0; word &= word - 1 {
				i := (int64(w)*64 + int64(bits.TrailingZeros64(word))) << k
				if i >= a.npages {
					return fmt.Errorf("order-%d bit set for page %d beyond the span", k, a.base+i)
				}
				if k < thpOrder && !headBit(i) {
					return fmt.Errorf("order-%d head %d missing from the head bitmap", k, a.base+i)
				}
				var orders int
				for j := 0; j <= MaxOrder && i&(1<<j-1) == 0; j++ {
					if a.isHead(i, j) {
						orders++
					}
				}
				if orders != 1 {
					return fmt.Errorf("head %d carries %d orders", a.base+i, orders)
				}
			}
		}
	}
	// Every order bit is inside the span and alone on its page, so a
	// heads bit whose page has an order below thpOrder is inside the
	// span and names exactly one chunk.
	for w, word := range a.heads {
		for ; word != 0; word &= word - 1 {
			i := int64(w)*64 + int64(bits.TrailingZeros64(word))
			if k := a.orderAt(i); k < 0 || k >= thpOrder {
				return fmt.Errorf("head bit of page %d marks order %d", a.base+i, k)
			}
		}
	}
	stacked := make([]bool, a.npages)
	for k, st := range a.stacks {
		for _, i := range st {
			if a.isHead(i, k) {
				stacked[i] = true
			}
		}
	}
	var counted int64
	regions := make([]int64, len(a.regionFree))
	i := int64(0)
	for i < a.npages {
		if !a.isFreeHead(i) {
			i++
			continue
		}
		k := a.orderAt(i)
		sz := int64(1) << k
		if i+sz > a.npages {
			return fmt.Errorf("chunk at %d order %d overruns span", a.base+i, k)
		}
		if !stacked[i] {
			return fmt.Errorf("chunk at %d order %d has no stack entry", a.base+i, k)
		}
		if bud := i ^ sz; k < MaxOrder && bud+sz <= a.npages && a.isHead(bud, k) {
			return fmt.Errorf("chunk at %d order %d not merged with its free buddy", a.base+i, k)
		}
		for j := i + 1; j < i+sz; j++ {
			if a.isFreeHead(j) {
				return fmt.Errorf("nested chunk head at %d inside chunk at %d", a.base+j, a.base+i)
			}
		}
		counted += sz
		if sh := a.regionShift; sh != 0 {
			regions[i>>sh] += sz
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
