package mem

import (
	"fmt"

	"squeezy/internal/buddy"
	"squeezy/internal/units"
)

// PFN is a guest page frame number (index of a 4 KiB page in guest
// physical address space).
type PFN = int64

// ZoneKind classifies a zone's role in the memory manager.
type ZoneKind int

// Zone kinds.
const (
	// ZoneNormal holds kernel and other non-movable allocations; its
	// blocks can never be offlined.
	ZoneNormal ZoneKind = iota
	// ZoneMovable holds migratable allocations (user anonymous memory,
	// page cache); hotplugged memory lands here on vanilla Linux.
	ZoneMovable
	// ZoneSqueezyPrivate is a Squeezy partition backing the anonymous
	// memory of exactly one function instance.
	ZoneSqueezyPrivate
	// ZoneSqueezyShared is the per-VM shared Squeezy partition backing
	// file mappings (runtime and language dependencies).
	ZoneSqueezyShared
)

// String returns the kernel-flavoured zone name.
func (k ZoneKind) String() string {
	switch k {
	case ZoneNormal:
		return "Normal"
	case ZoneMovable:
		return "Movable"
	case ZoneSqueezyPrivate:
		return "SqueezyPrivate"
	case ZoneSqueezyShared:
		return "SqueezyShared"
	default:
		return fmt.Sprintf("ZoneKind(%d)", int(k))
	}
}

// Zone is a contiguous span of guest physical memory managed as a unit.
// The span is fixed at creation (the zone struct exists even when the
// partition is empty, as in Squeezy's boot-time zone creation); memory
// becomes usable block by block via OnlineBlock.
type Zone struct {
	Name string
	Kind ZoneKind

	start  PFN
	npages int64

	alloc       *buddy.Allocator
	blockOnline []bool
	onlinePages int64

	// queued holds a ZoneSqueezyPrivate zone's deferred frees in call
	// order (see FreePage); queuedPages totals their pages.
	queued      []queuedFree
	queuedPages int64
}

// queuedFree is one deferred FreePage packed into a word: the chunk's
// first page frame above four bits of order (MaxOrder is 10).
type queuedFree uint64

func (f queuedFree) pfn() PFN   { return PFN(f >> 4) }
func (f queuedFree) order() int { return int(f & 15) }

// NewZone creates a zone spanning npages pages at start. Both must be
// memory-block aligned (128 MiB) — the hotplug core refuses anything
// else, and so do we. All blocks start offline.
func NewZone(name string, kind ZoneKind, start PFN, npages int64) *Zone {
	if npages <= 0 {
		panic(fmt.Sprintf("mem: zone %q has non-positive span %d", name, npages))
	}
	if start%units.PagesPerBlock != 0 || npages%units.PagesPerBlock != 0 {
		panic(fmt.Sprintf("mem: zone %q span [%d,+%d) not block-aligned", name, start, npages))
	}
	alloc := buddy.New(start, npages)
	// Per-block free counters make the occupancy questions the offline
	// paths ask (FreeInBlock, OccupiedInBlock, FinishOffline's emptiness
	// check) O(1) instead of O(block span).
	alloc.TrackRegions(units.PagesPerBlock)
	return &Zone{
		Name:        name,
		Kind:        kind,
		start:       start,
		npages:      npages,
		alloc:       alloc,
		blockOnline: make([]bool, npages/units.PagesPerBlock),
	}
}

// Reset re-dimensions the zone in place: a new identity and span over
// the same backing storage (buddy head bitmaps, region counters, block
// flags, the deferred-free queue), growing only when the new span is
// larger. All blocks start offline again and no free is queued, exactly
// as after NewZone — the reset invariant the world-pooling layer
// depends on.
func (z *Zone) Reset(name string, kind ZoneKind, start PFN, npages int64) {
	if npages <= 0 {
		panic(fmt.Sprintf("mem: zone %q has non-positive span %d", name, npages))
	}
	if start%units.PagesPerBlock != 0 || npages%units.PagesPerBlock != 0 {
		panic(fmt.Sprintf("mem: zone %q span [%d,+%d) not block-aligned", name, start, npages))
	}
	z.Name = name
	z.Kind = kind
	z.start = start
	z.npages = npages
	z.alloc.Reset(start, npages)
	blocks := int(npages / units.PagesPerBlock)
	if cap(z.blockOnline) >= blocks {
		z.blockOnline = z.blockOnline[:blocks]
		clear(z.blockOnline)
	} else {
		z.blockOnline = make([]bool, blocks)
	}
	z.onlinePages = 0
	z.queued = z.queued[:0]
	z.queuedPages = 0
}

// Pool recycles Zone objects — and through them the buddy allocator's
// head bitmaps and region counters, the dominant allocations of a large
// guest kernel, and the deferred-free queues — across simulation runs.
// Retired zones are handed back by Zone(), Reset to the requested
// identity. A nil *Pool is valid and always constructs fresh zones, so
// pooling stays opt-in.
//
// Pool is not safe for concurrent use: each worker owns one.
type Pool struct {
	zones []*Zone
}

// NewPool returns an empty zone pool.
func NewPool() *Pool { return &Pool{} }

// Zone returns a zone with the given identity: a retired zone reset in
// place when one is available, else a fresh one. The retired zone is
// the best fit for the span: the smallest whose buddy capacity holds
// it, else the largest, which then grows least. Handing a large request
// the last zone retired, whatever its size, would grow small arenas
// over and over while large ones served small requests.
func (p *Pool) Zone(name string, kind ZoneKind, start PFN, npages int64) *Zone {
	if p == nil || len(p.zones) == 0 {
		return NewZone(name, kind, start, npages)
	}
	var z *Zone
	z, p.zones = TakeBestFit(p.zones, func(z *Zone) int64 { return z.alloc.Capacity() }, npages)
	z.Reset(name, kind, start, npages)
	return z
}

// TakeBestFit removes from the non-empty pool s the arena that best
// serves a request for need units, and returns it with the shortened
// pool: the smallest whose capacity holds need, else the largest. The
// pool's order is not kept.
func TakeBestFit[T any](s []T, capacity func(T) int64, need int64) (T, []T) {
	best := 0
	for i := 1; i < len(s); i++ {
		// A fit beats a miss or a larger fit; a miss beats a smaller miss.
		c, b := capacity(s[i]), capacity(s[best])
		if fits, bestFits := c >= need, b >= need; fits && (!bestFits || c < b) || !fits && !bestFits && c > b {
			best = i
		}
	}
	x := s[best]
	last := len(s) - 1
	s[best] = s[last]
	var zero T
	s[last] = zero
	return x, s[:last]
}

// Retire hands a dead zone's storage back to the pool. The caller must
// not use the zone afterwards.
func (p *Pool) Retire(z *Zone) {
	if p == nil || z == nil {
		return
	}
	p.zones = append(p.zones, z)
}

// Start returns the zone's first page frame number.
func (z *Zone) Start() PFN { return z.start }

// Pages returns the zone's span in pages.
func (z *Zone) Pages() int64 { return z.npages }

// Bytes returns the zone's span in bytes.
func (z *Zone) Bytes() int64 { return units.PagesToBytes(z.npages) }

// Blocks returns the number of memory blocks the zone spans.
func (z *Zone) Blocks() int { return len(z.blockOnline) }

// Contains reports whether pfn lies inside the zone's span.
func (z *Zone) Contains(pfn PFN) bool { return pfn >= z.start && pfn < z.start+z.npages }

// BlockRange returns the page range [start, start+count) of block i.
func (z *Zone) BlockRange(i int) (start PFN, count int64) {
	if i < 0 || i >= len(z.blockOnline) {
		panic(fmt.Sprintf("mem: zone %q has no block %d", z.Name, i))
	}
	return z.start + int64(i)*units.PagesPerBlock, units.PagesPerBlock
}

// BlockOf returns the index of the block containing pfn.
func (z *Zone) BlockOf(pfn PFN) int {
	if !z.Contains(pfn) {
		panic(fmt.Sprintf("mem: pfn %d outside zone %q", pfn, z.Name))
	}
	return int((pfn - z.start) / units.PagesPerBlock)
}

// BlockIsOnline reports whether block i is online.
func (z *Zone) BlockIsOnline(i int) bool { return z.blockOnline[i] }

// allocator returns the zone's buddy allocator after replaying the
// queued frees into it, in the order they were queued, so every caller
// sees exactly the state eager frees would have left.
func (z *Zone) allocator() *buddy.Allocator {
	if len(z.queued) != 0 {
		for _, f := range z.queued {
			z.alloc.Free(f.pfn(), f.order())
		}
		z.queued = z.queued[:0]
		z.queuedPages = 0
	}
	return z.alloc
}

// OnlineBlock adds block i's pages to the allocator (the "online" step
// of hot-add). Onlining an online block panics.
func (z *Zone) OnlineBlock(i int) {
	if z.blockOnline[i] {
		panic(fmt.Sprintf("mem: zone %q block %d already online", z.Name, i))
	}
	start, count := z.BlockRange(i)
	z.allocator().FreeRange(start, count)
	z.blockOnline[i] = true
	z.onlinePages += count
}

// IsolateBlock withdraws block i's free pages from the allocator (the
// MIGRATE_ISOLATE phase of offlining) and returns how many pages remain
// occupied in the block. The caller must migrate those before calling
// FinishOffline, or return the isolated pages with UndoIsolate.
func (z *Zone) IsolateBlock(i int) (occupied int64) {
	if !z.blockOnline[i] {
		panic(fmt.Sprintf("mem: zone %q block %d not online", z.Name, i))
	}
	start, count := z.BlockRange(i)
	isolated := z.allocator().IsolateRange(start, count)
	return count - isolated
}

// UndoIsolate aborts an offline attempt on block i, returning its
// isolated free pages to the allocator. occupiedThen must be the value
// IsolateBlock returned.
func (z *Zone) UndoIsolate(i int, occupiedThen int64) {
	start, count := z.BlockRange(i)
	// Free pages were isolated; occupied pages never left. Re-online
	// only the isolated portion. We don't know which sub-ranges were
	// free, so this helper is only valid when the whole block was free.
	if occupiedThen != 0 {
		panic("mem: UndoIsolate on partially occupied block is not supported; migrate instead")
	}
	z.allocator().FreeRange(start, count)
}

// FinishOffline marks block i offline after all its pages have been
// isolated/migrated away. The block must hold no allocated pages; the
// caller asserts that via migration.
func (z *Zone) FinishOffline(i int) {
	if !z.blockOnline[i] {
		panic(fmt.Sprintf("mem: zone %q block %d not online", z.Name, i))
	}
	start, count := z.BlockRange(i)
	if got := z.allocator().FreeInRange(start, count); got != 0 {
		panic(fmt.Sprintf("mem: offlining zone %q block %d with %d pages still in allocator", z.Name, i, got))
	}
	z.blockOnline[i] = false
	z.onlinePages -= count
}

// OfflineAll offlines every block of the zone in one step. It is the
// unplug of a free Squeezy partition: every page allocated in it has
// been freed (NrAllocated is 0, the frees typically still queued), so
// there is nothing to isolate, migrate or check block by block. The
// queue is dropped and the allocator reset, whose sparse clear visits
// only the stacked free-chunk heads. The zone ends in exactly the state
// IsolateBlock and FinishOffline on each block would leave. It panics
// unless every block is online and NrAllocated is 0.
//
// The caller must have proved that nothing in the zone is live, as
// guestos.Kernel.OfflineZone does through its reverse map. NrAllocated
// counts pages, not chunks: a chunk freed twice while another chunk of
// the same size is still allocated leaves it at 0, and OfflineAll then
// drops the live chunk with the queue instead of panicking.
func (z *Zone) OfflineAll() {
	for i, on := range z.blockOnline {
		if !on {
			panic(fmt.Sprintf("mem: offlining zone %q whole with block %d offline", z.Name, i))
		}
	}
	if n := z.NrAllocated(); n != 0 {
		panic(fmt.Sprintf("mem: offlining zone %q whole with %d pages allocated", z.Name, n))
	}
	z.queued = z.queued[:0]
	z.queuedPages = 0
	z.alloc.Reset(z.start, z.npages)
	clear(z.blockOnline)
	z.onlinePages = 0
}

// AllocPage allocates a 2^order-page chunk from the zone's online
// memory.
func (z *Zone) AllocPage(order int) (PFN, bool) { return z.allocator().Alloc(order) }

// FreePage returns a chunk previously handed out by AllocPage.
//
// On a ZoneSqueezyPrivate zone the free is only queued, after checking
// its span and alignment. A partition's allocations die with its
// instance, and the partition is usually unplugged whole (OfflineAll)
// before anything allocates in it again, so coalescing each chunk back
// into the buddy allocator would be wasted work. Every other method
// that reads or changes the allocator replays the queue first, so a
// partition recycled to a new instance sees exactly the eager state,
// and a double free panics at that replay. OfflineAll does not replay:
// it catches a double free only when the pages freed exceed the pages
// allocated, and a caller must check for live chunks first (see
// OfflineAll).
func (z *Zone) FreePage(pfn PFN, order int) {
	if z.Kind != ZoneSqueezyPrivate {
		z.alloc.Free(pfn, order)
		return
	}
	if order < 0 || order > buddy.MaxOrder {
		panic(fmt.Sprintf("mem: zone %q FreePage(%d, %d): bad order", z.Name, pfn, order))
	}
	i := pfn - z.start
	if i < 0 || i+1<<order > z.npages || i&(1<<order-1) != 0 {
		panic(fmt.Sprintf("mem: zone %q FreePage(%d, %d) outside the span or misaligned", z.Name, pfn, order))
	}
	if cap(z.queued) == 0 {
		// One entry per 2 MiB, the THP chunk a partition's instance
		// allocates, so a zone (pooled zones keep it) allocates its queue
		// once.
		z.queued = make([]queuedFree, 0, z.npages>>9)
	}
	z.queued = append(z.queued, queuedFree(pfn)<<4|queuedFree(order))
	z.queuedPages += 1 << order
}

// ShuffleFreeLists reorders the zone's free lists as if all its free
// memory were reserved 2^order pages at a time and freed in the order
// draw picks; see buddy.Allocator.ShuffleFreeLists.
func (z *Zone) ShuffleFreeLists(order int, draw func(n int) int) {
	z.allocator().ShuffleFreeLists(order, draw)
}

// FreePageRange returns an arbitrary page range to the allocator,
// decomposed into aligned chunks (used when aborting an offline).
func (z *Zone) FreePageRange(pfn PFN, count int64) { z.allocator().FreeRange(pfn, count) }

// NrOnline returns the number of online pages.
func (z *Zone) NrOnline() int64 { return z.onlinePages }

// NrFree returns the number of free pages, queued frees included.
func (z *Zone) NrFree() int64 { return z.alloc.NrFree() + z.queuedPages }

// NrAllocated returns the number of allocated (online, not free) pages.
func (z *Zone) NrAllocated() int64 { return z.onlinePages - z.NrFree() }

// FreeInBlock returns the number of free pages in block i.
func (z *Zone) FreeInBlock(i int) int64 {
	start, count := z.BlockRange(i)
	return z.allocator().FreeInRange(start, count)
}

// OccupiedInBlock returns the number of allocated pages in block i (0
// for offline blocks).
func (z *Zone) OccupiedInBlock(i int) int64 {
	if !z.blockOnline[i] {
		return 0
	}
	_, count := z.BlockRange(i)
	return count - z.FreeInBlock(i)
}

// OnlineBlocks returns the indexes of online blocks, ascending.
func (z *Zone) OnlineBlocks() []int {
	var out []int
	for i, on := range z.blockOnline {
		if on {
			out = append(out, i)
		}
	}
	return out
}

// FreeChunkAt reports whether pfn heads a free chunk, and its order.
func (z *Zone) FreeChunkAt(pfn PFN) (order int, ok bool) { return z.allocator().FreeChunkAt(pfn) }

// CheckInvariants validates zone-level accounting after replaying the
// queued frees; O(span), for tests.
func (z *Zone) CheckInvariants() error {
	if err := z.allocator().CheckInvariants(); err != nil {
		return fmt.Errorf("zone %q: %w", z.Name, err)
	}
	var online int64
	for i, on := range z.blockOnline {
		if !on {
			start, count := z.BlockRange(i)
			if got := z.alloc.FreeInRange(start, count); got != 0 {
				return fmt.Errorf("zone %q: offline block %d has %d free pages", z.Name, i, got)
			}
			continue
		}
		online += units.PagesPerBlock
	}
	if online != z.onlinePages {
		return fmt.Errorf("zone %q: online count %d != %d", z.Name, z.onlinePages, online)
	}
	if z.alloc.NrFree() > z.onlinePages {
		return fmt.Errorf("zone %q: free %d exceeds online %d", z.Name, z.alloc.NrFree(), z.onlinePages)
	}
	return nil
}
