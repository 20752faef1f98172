// Package buddy implements a Linux-style binary buddy page allocator.
//
// The allocator manages a span of page frames [base, base+npages). Pages
// enter the allocator through Free/FreeRange (memory onlining) and leave
// through Alloc (page allocation) or IsolateRange (memory offlining, the
// MIGRATE_ISOLATE step of hot-unplug). Chunks are power-of-two sized,
// naturally aligned, and coalesce eagerly with their buddy on free, as
// in mm/page_alloc.c.
//
// Free state is kept in bitmaps, about 3 bits per page: one head
// bitmap per order (bit i>>k of order k is set iff page i heads a free
// order-k chunk, so the order-9/10 heads that hotplug and huge pages
// touch sit 64 to a word) and one head bitmap for the orders below 9
// (bit i is set iff page i heads a free chunk of such an order).
// Order-9 (2 MiB, a transparent huge page) and max-order heads live
// only in their order's bitmap, so onlining a block, which frees
// nothing but max-order chunks, and splitting or freeing huge pages
// touch one word per 64 chunks rather than a cache line per chunk;
// range scans look for them at each 512-page boundary. Code that
// already knows an order tests one bit; a head's order, when unknown,
// is found by testing the orders its alignment allows.
//
// FreeRange onlines a whole tracked region that holds no free page in
// one pass (its chunks cannot be double frees and never merge), and a
// Reset of a sparse span clears only the words its stacked heads sit
// in, so withdrawing all of a span's memory at once costs O(stack
// entries).
//
// Free lists are per-order LIFO stacks with lazy deletion, so allocation
// order is deterministic (most-recently-freed first, like the kernel's
// hot/cold page behaviour) and removing an arbitrary chunk during
// coalescing or isolation is O(1) amortized: an entry whose order bit is
// clear is stale and skipped on pop. ShuffleFreeLists gives the stacks
// the order that reserving all free memory and freeing it in random
// order would leave, without doing either, in scratch the allocator
// keeps so that a warm shuffle allocates nothing.
//
// For the hot-unplug paths the allocator also keeps bulk range state:
// with TrackRegions enabled it maintains a free-page counter per
// fixed-size region (the caller's hotplug block), so FreeInRange over a
// region-aligned range — the per-block occupancy question every unplug
// candidate scan asks — is O(regions) array reads instead of an O(span)
// page walk. IsolateRange and unaligned FreeInRange visit only the free
// chunks in their range through the head bitmaps: they skip
// fully occupied regions by their counter (IsolateRange) and other
// allocated or absent memory 64 pages per bitmap word. When isolation
// leaves no free page, the stacks hold only stale entries and are
// truncated, so plug/unplug cycles do not pile them up.
package buddy
