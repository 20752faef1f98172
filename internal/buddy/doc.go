// Package buddy implements a Linux-style binary buddy page allocator.
//
// The allocator manages a span of page frames [base, base+npages). Pages
// enter the allocator through Free/FreeRange (memory onlining) and leave
// through Alloc (page allocation) or IsolateRange (memory offlining, the
// MIGRATE_ISOLATE step of hot-unplug). Chunks are power-of-two sized,
// naturally aligned, and coalesce eagerly with their buddy on free, as
// in mm/page_alloc.c.
//
// Free lists are per-order LIFO stacks with lazy deletion, so allocation
// order is deterministic (most-recently-freed first, like the kernel's
// hot/cold page behaviour) and removing an arbitrary chunk during
// coalescing or isolation is O(1) amortized. ShuffleFreeLists gives the
// stacks the order that reserving all free memory and freeing it in
// random order would leave, without doing either.
//
// For the hot-unplug paths the allocator also keeps bulk range state:
// with TrackRegions enabled it maintains a free-page counter per
// fixed-size region (the caller's hotplug block), so FreeInRange over a
// region-aligned range — the per-block occupancy question every unplug
// candidate scan asks — is O(regions) array reads instead of an O(span)
// page walk. A free-chunk-head bitmap mirrors the order map, so
// IsolateRange visits only the free chunks in its range: it skips
// fully occupied regions by their counter and other allocated or absent
// memory 64 pages per bitmap word.
package buddy
