// Package mem models guest physical memory the way the Linux memory
// hotplug core sees it: a span of page frames divided into 128 MiB
// memory blocks, grouped into zones, each zone fronted by a buddy
// allocator.
//
// A Zone is the unit Squeezy builds on: vanilla Linux has ZONE_NORMAL
// (kernel, non-movable) and ZONE_MOVABLE (user pages, hot-unpluggable);
// Squeezy adds one zone per partition. Blocks within a zone are onlined
// (their pages released to the buddy allocator) and offlined (isolated
// and withdrawn) independently, exactly like memory_hotplug.c.
//
// A ZoneSqueezyPrivate zone defers its frees: FreePage checks the chunk
// and queues it, and every other method that reads or changes the
// allocator replays the queue first, in order, so a partition recycled
// to a new instance sees exactly the state eager frees would have left
// (NrFree and NrAllocated count queued pages without replaying). A
// partition's allocations die with its instance, so the queue usually
// never replays: OfflineAll drops it and resets the allocator, taking
// every block offline in one step instead of isolating and checking
// each, once nothing in the zone is allocated. Since it does not
// replay, it cannot see a double free that a live chunk of the same
// size balances; its caller proves the zone holds no live chunk first.
//
// Zones reset in place and recycle through a Pool keyed by geometry,
// so pooled simulation worlds reuse one arena set — including the
// buddy allocators' head bitmaps (about 3 bits per page), whose sparse
// targeted zeroing makes resetting a 64 GiB span cheap — across
// consecutive runs.
package mem
