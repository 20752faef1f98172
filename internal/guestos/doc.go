// Package guestos models the guest Linux kernel's memory management as
// the paper depends on it: processes with lazily-faulted anonymous
// memory, a shared page cache for file mappings, fork/exit lifecycles,
// a reverse map from physical chunks to their owners, and the
// migration machinery the hot-unplug path leans on.
//
// The model is structural, not statistical: pages live in real zones
// managed by a real buddy allocator, so footprint interleaving across
// memory blocks — the phenomenon of Figure 3 that makes vanilla
// unplugging slow — emerges from the allocation history exactly as it
// does on Linux.
//
// Page state is maintained in bulk, never page-at-a-time: the EPT
// population bitmap works in word-masked ranges, chunks live in a
// pointer-free per-kernel slab named by int32 index (and, outside the
// package, by generation-checked ChunkID handles), the chunk reverse
// map is keyed by 128 MiB hotplug block (an unordered slice of indexes
// per block, with each chunk recording its slot so add and remove are
// O(1)), and zone occupancy questions resolve through the buddy
// allocator's per-region free counters. Each hotplug block also keeps
// a count of its populated pages: markPopulated answers a full block
// without touching the bitmap, and ReleaseRange skips blocks with
// nothing populated, clears the
// words of blocks it covers whole without counting them, and counts
// bits only in a block it covers in part. OfflineZone takes a free
// Squeezy partition offline in one step (mem.Zone.OfflineAll) after
// checking that no live chunk is left in its blocks. A Recycler caches
// the flat storage a kernel allocates (zone structs with their buddy
// head bitmaps, bitmap words, per-block state, chunk slabs, reverse-map
// buckets) so pooled simulation worlds rebuild kernels without
// reallocating; a kernel built from recycled arenas behaves identically
// to one built fresh. ReserveZones sizes a kernel's per-page and
// per-block storage for zones about to be added, so a caller adding
// many (Squeezy's partitions) does not regrow it zone by zone.
package guestos
