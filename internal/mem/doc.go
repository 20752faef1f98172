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
// Zones reset in place and recycle through a Pool keyed by geometry,
// so pooled simulation worlds reuse one arena set — including the
// buddy allocators' head bitmaps (about 3 bits per page), whose sparse
// targeted zeroing makes resetting a 64 GiB span cheap — across
// consecutive runs.
package mem
