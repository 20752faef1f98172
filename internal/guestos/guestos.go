package guestos

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"

	"squeezy/internal/costmodel"
	"squeezy/internal/mem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

// HugeOrder is the allocation order of a 2 MiB THP chunk.
const HugeOrder = 9

// Chunk is one allocated physical extent (2^Order pages), owned by a
// process's anonymous memory or a cached file's pages. Chunks live in
// a per-kernel slab (Kernel.chunks) and are named by int32 index: the
// owners' lists, the per-block reverse map (hotplugBlock.chunks) and the
// offline path all carry indexes, so allocating a chunk costs no heap
// object and the slab holds nothing the garbage collector must scan.
// Outside the package a chunk is reached through a generation-checked
// ChunkID.
type Chunk struct {
	PFN   mem.PFN
	Order int32 // -1 while the slab entry is free

	zone int32 // index in Kernel.zones
	// slot is the chunk's index in its block's reverse-map slice while
	// live, and the next free entry's index while free.
	slot int32
	// gen advances each time the entry is freed or handed out from
	// recycled storage, so a ChunkID outliving its chunk goes stale.
	gen uint32
}

// Pages returns the chunk size in pages.
func (c *Chunk) Pages() int64 { return 1 << c.Order }

// ChunkID is a handle to one chunk of a kernel's slab, valid until the
// chunk is freed (Exit, FreeAnon, DropFile) or the kernel is released.
// Using a stale handle panics rather than touching whatever chunk
// reuses the slab entry.
type ChunkID struct {
	idx int32
	gen uint32
}

// Process is a guest process (a function instance's container, or the
// in-guest agent).
type Process struct {
	PID  int
	Name string

	// AssignedZone, when non-nil, confines the process's anonymous
	// allocations to one zone — Squeezy's partition assignment. Nil
	// processes allocate from ZONE_MOVABLE like vanilla Linux.
	AssignedZone *mem.Zone

	anonChunks []int32 // slab indexes, in allocation order
	anonPages  int64
	mappedFile map[*CachedFile]int64 // pages of each file this process mapped
	exited     bool
}

// AnonPages returns the process's resident anonymous pages.
func (p *Process) AnonPages() int64 { return p.anonPages }

// Exited reports whether the process has exited.
func (p *Process) Exited() bool { return p.exited }

// CachedFile is a file resident in the guest page cache, shared across
// every process that maps it (container rootfs, runtime libraries).
type CachedFile struct {
	Name string
	Zone *mem.Zone // where its pages live

	chunks        []int32 // slab indexes
	residentPages int64
	mapCount      int
}

// ResidentPages returns the file's pages currently in the page cache.
func (f *CachedFile) ResidentPages() int64 { return f.residentPages }

// MapCount returns how many processes currently map the file.
func (f *CachedFile) MapCount() int { return f.mapCount }

// Kernel is the guest OS memory manager of one VM.
type Kernel struct {
	Sched *sim.Scheduler
	Cost  *costmodel.Model
	VM    *vmm.VM

	// Normal is the boot memory zone (kernel text/data, the agent);
	// never hot-unpluggable.
	Normal *mem.Zone
	// Movable is ZONE_MOVABLE: user pages and page cache on the
	// vanilla path; hotplugged memory lands here.
	Movable *mem.Zone
	// SharedZone, when non-nil, receives file-backed pages instead of
	// Movable — Squeezy's shared partition.
	SharedZone *mem.Zone

	// OnProcExit and OnProcFork let the Squeezy manager observe
	// process lifecycle (partition refcounting) without a dependency
	// cycle.
	OnProcExit func(*Process)
	OnProcFork func(parent, child *Process)

	zones   []*mem.Zone
	nextPFN mem.PFN

	nextPID int
	procs   map[int]*Process
	// chunks is the chunk slab; freeChunk heads its free list, threaded
	// through the free entries' slot fields (-1: empty).
	chunks    []Chunk
	freeChunk int32
	// blocks is the per-hotplug-block state, indexed by PFN /
	// PagesPerBlock: the reverse map and the populated count.
	blocks []hotplugBlock
	files  map[string]*CachedFile

	populated bitset // per-PFN: guest page backed by a host frame

	recycle *Recycler // nil unless the kernel was built through one
}

// hotplugBlock is the kernel's state for one 128 MiB hotplug block.
// Chunks are naturally aligned and at most 2^MaxOrder pages, so no
// chunk straddles a block boundary.
type hotplugBlock struct {
	// chunks is the block's share of the reverse map: the allocated
	// chunks whose pages lie in the block, so the offline path's range
	// queries walk the handful of chunks in a block instead of probing a
	// map once per page frame. The slice is unordered; a chunk records
	// its index (slot) so removal is an O(1) swap-remove with no hashing.
	chunks []int32
	// populated counts the block's bits set in Kernel.populated, so
	// ReleaseRange skips never-populated blocks and clears whole ones
	// without counting bits.
	populated int64
}

// Recycler caches the flat storage a guest kernel allocates — zone
// structs with their buddy head bitmaps and region counters, the
// populated bitmap's word array with the per-block state, the chunk
// slab, and the per-block reverse-map buckets — so a worker simulating
// many worlds in sequence reuses one arena set instead of
// reconstructing it per run. Pass it via Config.Recycle and hand a dead
// kernel's storage back with Kernel.Release.
//
// Reused storage is always reset to its freshly-constructed state
// before it is handed out, so a kernel built from recycled arenas
// behaves identically to one built from fresh ones. A Recycler is not
// safe for concurrent use: each worker owns its own.
type Recycler struct {
	zones *mem.Pool
	pages []pageState
	slabs [][]Chunk
	rmaps [][]int32
}

// pageState is a kernel's per-page and per-block storage: the populated
// bitmap's words and the block states. They are recycled as a unit
// because the blocks' populated counts say which words hold set bits.
type pageState struct {
	words  []uint64
	blocks []hotplugBlock
}

// NewRecycler returns an empty recycler.
func NewRecycler() *Recycler { return &Recycler{zones: mem.NewPool()} }

// zone hands out a pooled (or fresh) zone. A nil recycler constructs
// fresh zones.
func (r *Recycler) zone(name string, kind mem.ZoneKind, start mem.PFN, npages int64) *mem.Zone {
	if r == nil {
		return mem.NewZone(name, kind, start, npages)
	}
	return r.zones.Zone(name, kind, start, npages)
}

// takePages hands out recycled page state, the best fit for a span of
// need blocks, with both slices at length zero. The words are zero to
// their capacity, so grow appends clean ones; only the words of blocks
// the last kernel left populated are cleared here, since the rest were
// never set or were cleared by ReleaseRange. addZone appends each
// block's state afresh.
func (r *Recycler) takePages(need int) (words []uint64, blocks []hotplugBlock) {
	if r == nil || len(r.pages) == 0 {
		return nil, nil
	}
	var ps pageState
	ps, r.pages = mem.TakeBestFit(r.pages, func(ps pageState) int64 { return int64(cap(ps.blocks)) }, int64(need))
	const blockWords = int(units.PagesPerBlock / 64)
	for b := range ps.blocks {
		if ps.blocks[b].populated != 0 {
			clear(ps.words[b*blockWords : (b+1)*blockWords])
		}
	}
	return ps.words[:0], ps.blocks[:0]
}

// takeRmap hands out an empty reverse-map bucket (nil when none is
// recycled; append allocates it). Buckets hold slab indexes, not
// pointers, so a retired bucket's stale content pins nothing and is
// simply overwritten.
func (r *Recycler) takeRmap() []int32 {
	if r == nil || len(r.rmaps) == 0 {
		return nil
	}
	s := r.rmaps[len(r.rmaps)-1]
	r.rmaps = r.rmaps[:len(r.rmaps)-1]
	return s[:0]
}

// takeSlab hands out a recycled chunk slab (length zero, nil when none
// is recycled). Its entries past the length keep their generations:
// newChunk advances an entry's generation as it reuses it, so a handle
// into the slab's previous kernel stays stale.
func (r *Recycler) takeSlab() []Chunk {
	if r == nil || len(r.slabs) == 0 {
		return nil
	}
	s := r.slabs[len(r.slabs)-1]
	r.slabs = r.slabs[:len(r.slabs)-1]
	return s[:0]
}

// Release retires the kernel's arena storage into the recycler it was
// built with (a no-op for kernels built without one). The kernel must
// not be used afterwards: its zones, bitmap, and reverse map now
// belong to the recycler and will back future kernels.
func (k *Kernel) Release() {
	r := k.recycle
	if r == nil {
		return
	}
	for _, z := range k.zones {
		r.zones.Retire(z)
	}
	k.zones = nil
	k.Normal, k.Movable, k.SharedZone = nil, nil, nil
	if cap(k.chunks) > 0 {
		r.slabs = append(r.slabs, k.chunks)
	}
	k.chunks, k.freeChunk = nil, -1 // every ChunkID of this kernel is now stale
	for b := range k.blocks {
		if s := k.blocks[b].chunks; s != nil {
			r.rmaps = append(r.rmaps, s)
			k.blocks[b].chunks = nil
		}
	}
	if cap(k.blocks) > 0 {
		// Full length: takePages reads the populated counts to clear the
		// words that hold bits.
		r.pages = append(r.pages, pageState{words: k.populated.words, blocks: k.blocks})
	}
	k.populated.words, k.blocks = nil, nil
	k.recycle = nil
}

// Config sizes a guest kernel.
type Config struct {
	// BootBytes is the Normal-zone span (block-aligned, fully online at
	// boot).
	BootBytes int64
	// MovableBytes is the ZONE_MOVABLE span. Blocks start offline; a
	// hotplug driver onlines them, or OnlineAllMovable does for
	// statically sized VMs.
	MovableBytes int64
	// KernelResidentBytes is the boot footprint of the guest kernel and
	// agent, allocated from Normal and populated in the host.
	KernelResidentBytes int64
	// Recycle, when non-nil, supplies recycled arena storage (zone
	// structs, buddy head bitmaps, bitmap words, chunk slabs,
	// reverse-map buckets) harvested from kernels a previous simulation
	// released.
	Recycle *Recycler
}

// NewKernel boots a guest kernel inside vm. The VM must have enough
// host commit budget for the boot memory (BootBytes is committed here;
// movable memory is committed as it is plugged).
func NewKernel(vm *vmm.VM, cfg Config) *Kernel {
	if cfg.BootBytes <= 0 {
		panic("guestos: BootBytes must be positive")
	}
	bootBytes := units.AlignUp(cfg.BootBytes, units.BlockSize)
	movBytes := units.AlignUp(cfg.MovableBytes, units.BlockSize)
	k := &Kernel{
		Sched:     vm.Sched,
		Cost:      vm.Cost,
		VM:        vm,
		procs:     make(map[int]*Process),
		files:     make(map[string]*CachedFile),
		nextPID:   1,
		recycle:   cfg.Recycle,
		chunks:    cfg.Recycle.takeSlab(),
		freeChunk: -1,
	}
	k.populated.words, k.blocks = cfg.Recycle.takePages(int(units.BytesToBlocks(bootBytes + movBytes)))
	k.Normal = k.addZone("Normal", mem.ZoneNormal, bootBytes)
	for i := 0; i < k.Normal.Blocks(); i++ {
		k.Normal.OnlineBlock(i)
	}
	if !vm.Commit(units.BytesToPages(bootBytes)) {
		panic(fmt.Sprintf("guestos: host cannot back boot memory of %s", vm.Name))
	}
	if movBytes > 0 {
		k.Movable = k.addZone("Movable", mem.ZoneMovable, movBytes)
	}
	if cfg.KernelResidentBytes > 0 {
		kp := k.Spawn("kernel")
		kp.AssignedZone = k.Normal // kernel allocations are non-movable
		if _, ok := k.TouchAnon(kp, cfg.KernelResidentBytes, HugeOrder); !ok {
			panic("guestos: boot memory too small for kernel footprint")
		}
	}
	return k
}

// addZone appends a zone of the given byte span to the guest physical
// address space.
func (k *Kernel) addZone(name string, kind mem.ZoneKind, bytes int64) *mem.Zone {
	pages := units.BytesToPages(units.AlignUp(bytes, units.BlockSize))
	z := k.recycle.zone(name, kind, k.nextPFN, pages)
	k.nextPFN += pages
	k.zones = append(k.zones, z)
	k.populated.grow(k.nextPFN)
	for int64(len(k.blocks)) < k.nextPFN/units.PagesPerBlock {
		k.blocks = append(k.blocks, hotplugBlock{})
	}
	return z
}

// newChunk takes a slab entry for a freshly allocated extent of zone
// z (an index in k.zones) and registers it in the reverse map. It
// returns the entry's index.
func (k *Kernel) newChunk(pfn mem.PFN, order int, z int32) int32 {
	i := k.freeChunk
	if i >= 0 {
		k.freeChunk = k.chunks[i].slot
	} else if n := len(k.chunks); n < cap(k.chunks) {
		// Recycled storage: the entry's old handles must not match.
		k.chunks = k.chunks[:n+1]
		i = int32(n)
		k.chunks[i].gen++
	} else {
		k.chunks = append(k.chunks, Chunk{})
		i = int32(n)
	}
	c := &k.chunks[i]
	c.PFN, c.Order, c.zone = pfn, int32(order), z
	k.addOwner(i)
	return i
}

// dropChunk frees chunk i: its pages return to its zone, it leaves the
// reverse map, and its slab entry goes on the free list with a new
// generation. The caller removes it from its owner's list.
func (k *Kernel) dropChunk(i int32) {
	k.delOwner(i)
	c := &k.chunks[i]
	k.zones[c.zone].FreePage(c.PFN, int(c.Order))
	c.Order = -1
	c.gen++
	c.slot = k.freeChunk
	k.freeChunk = i
}

// addOwner registers chunk i in the per-block reverse map.
func (k *Kernel) addOwner(i int32) {
	c := &k.chunks[i]
	blk := &k.blocks[c.PFN/units.PagesPerBlock]
	if blk.chunks == nil {
		blk.chunks = k.recycle.takeRmap()
	}
	c.slot = int32(len(blk.chunks))
	blk.chunks = append(blk.chunks, i)
}

// delOwner removes chunk i from the per-block reverse map, moving the
// block's last chunk into its slot.
func (k *Kernel) delOwner(i int32) {
	c := &k.chunks[i]
	blk := &k.blocks[c.PFN/units.PagesPerBlock]
	last := len(blk.chunks) - 1
	moved := blk.chunks[last]
	blk.chunks[c.slot] = moved
	k.chunks[moved].slot = c.slot
	blk.chunks = blk.chunks[:last]
}

// chunk resolves a handle to its live slab entry, panicking on a stale
// one — freed, or from a released kernel.
func (k *Kernel) chunk(id ChunkID) *Chunk {
	if int(id.idx) >= len(k.chunks) || k.chunks[id.idx].gen != id.gen {
		panic(fmt.Sprintf("guestos: stale chunk handle %d/%d", id.idx, id.gen))
	}
	return &k.chunks[id.idx]
}

// zoneIndex returns z's index in k.zones.
func (k *Kernel) zoneIndex(z *mem.Zone) int32 {
	for i, kz := range k.zones {
		if kz == z {
			return int32(i)
		}
	}
	panic(fmt.Sprintf("guestos: zone %q not registered with this kernel", z.Name))
}

// AddZone registers an extra zone (a Squeezy partition) spanning bytes.
// Its blocks start offline.
func (k *Kernel) AddZone(name string, kind mem.ZoneKind, bytes int64) *mem.Zone {
	return k.addZone(name, kind, bytes)
}

// ReserveZones sizes the kernel's per-page and per-block storage for
// zones spanning bytes that the caller is about to add with AddZone, so
// adding them one by one does not regrow and copy it.
func (k *Kernel) ReserveZones(bytes int64) {
	end := k.nextPFN + units.BytesToPages(bytes)
	if n := int((end+63)/64) - len(k.populated.words); n > 0 {
		k.populated.words = slices.Grow(k.populated.words, n)
	}
	if n := int(end/units.PagesPerBlock) - len(k.blocks); n > 0 {
		k.blocks = slices.Grow(k.blocks, n)
	}
}

// OfflineZone offlines every block of z in one step (mem.Zone.
// OfflineAll): Squeezy's unplug of a free partition, whose allocations
// all died with their instance. It panics if a live chunk is still in
// the reverse map of any of z's blocks, and, through OfflineAll, unless
// every block is online and no page is allocated.
func (k *Kernel) OfflineZone(z *mem.Zone) {
	first := z.Start() / units.PagesPerBlock
	for b := first; b < first+int64(z.Blocks()); b++ {
		if n := len(k.blocks[b].chunks); n != 0 {
			panic(fmt.Sprintf("guestos: offlining zone %q with %d live chunks in block %d", z.Name, n, b))
		}
	}
	z.OfflineAll()
}

// Zones returns all registered zones in address order.
func (k *Kernel) Zones() []*mem.Zone { return k.zones }

// OnlineAllMovable onlines every movable block, modelling a statically
// sized (non-hotplug) VM. The host commit for the whole span must
// succeed.
func (k *Kernel) OnlineAllMovable() {
	if k.Movable == nil {
		return
	}
	for i := 0; i < k.Movable.Blocks(); i++ {
		if !k.Movable.BlockIsOnline(i) {
			if !k.VM.Commit(units.PagesPerBlock) {
				panic("guestos: host cannot back static movable memory")
			}
			k.Movable.OnlineBlock(i)
		}
	}
}

// --- process lifecycle ---

// Spawn creates a process.
func (k *Kernel) Spawn(name string) *Process {
	p := &Process{
		PID:        k.nextPID,
		Name:       name,
		mappedFile: make(map[*CachedFile]int64),
	}
	k.nextPID++
	k.procs[p.PID] = p
	return p
}

// Fork creates a child process inheriting the parent's zone assignment
// (Squeezy co-locates a fork's memory in the parent's partition).
func (k *Kernel) Fork(parent *Process, name string) *Process {
	if parent.exited {
		panic("guestos: fork from exited process")
	}
	child := k.Spawn(name)
	child.AssignedZone = parent.AssignedZone
	if k.OnProcFork != nil {
		k.OnProcFork(parent, child)
	}
	return child
}

// Exit terminates a process: all anonymous chunks return to their
// zones, file map counts drop (pages stay cached), and the exit hook
// fires. It returns the number of anonymous pages freed.
func (k *Kernel) Exit(p *Process) int64 {
	if p.exited {
		panic(fmt.Sprintf("guestos: double exit of pid %d", p.PID))
	}
	freed := p.anonPages
	for _, c := range p.anonChunks {
		k.dropChunk(c)
	}
	p.anonChunks = nil
	p.anonPages = 0
	for f := range p.mappedFile {
		f.mapCount--
	}
	p.mappedFile = nil
	p.exited = true
	delete(k.procs, p.PID)
	if k.OnProcExit != nil {
		k.OnProcExit(p)
	}
	return freed
}

// NumProcs returns the number of live processes.
func (k *Kernel) NumProcs() int { return len(k.procs) }

// --- memory touch paths ---

// anonZone returns the zone backing p's anonymous faults.
func (k *Kernel) anonZone(p *Process) *mem.Zone {
	if p.AssignedZone != nil {
		return p.AssignedZone
	}
	if k.Movable == nil {
		return k.Normal
	}
	return k.Movable
}

// fileZone returns the zone backing page-cache pages.
func (k *Kernel) fileZone() *mem.Zone {
	if k.SharedZone != nil {
		return k.SharedZone
	}
	if k.Movable == nil {
		return k.Normal
	}
	return k.Movable
}

// TouchAnon lazily faults bytes of fresh anonymous memory into p at the
// given allocation order (HugeOrder for THP-backed workloads, 0 for 4
// KiB). It returns the guest CPU work consumed by fault handling,
// zeroing, and nested EPT faults. ok is false when the backing zone ran
// out of memory — the caller decides between OOM-killing (Squeezy
// partition overflow) and failing the allocation; any partially
// allocated chunks remain with the process and are released on Exit.
func (k *Kernel) TouchAnon(p *Process, bytes int64, order int) (work sim.Duration, ok bool) {
	if p.exited {
		panic(fmt.Sprintf("guestos: touch on exited pid %d", p.PID))
	}
	zone := k.anonZone(p)
	zi := k.zoneIndex(zone)
	npages := units.BytesToPages(bytes)
	// One growth for the whole touch (exact unless fragmentation forces
	// smaller orders), not a doubling series.
	p.anonChunks = slices.Grow(p.anonChunks, int((npages+1<<order-1)>>order))
	var allocated, fresh int64
	for allocated < npages {
		o := order
		pfn, got := zone.AllocPage(o)
		for !got && o > 0 {
			// Fall back to smaller orders under fragmentation, as the
			// THP fault path does.
			o--
			pfn, got = zone.AllocPage(o)
		}
		if !got {
			work += k.anonWork(allocated, fresh)
			return work, false
		}
		p.anonChunks = append(p.anonChunks, k.newChunk(pfn, o, zi))
		pages := int64(1) << o
		p.anonPages += pages
		allocated += pages
		fresh += k.markPopulated(pfn, pages)
	}
	return k.anonWork(allocated, fresh), true
}

func (k *Kernel) anonWork(pages, fresh int64) sim.Duration {
	w := sim.Duration(pages) * (k.Cost.GuestFaultPerPage + k.Cost.ZeroPerPage)
	if fresh > 0 {
		w += k.VM.PopulatePages(fresh)
	}
	return w
}

// FreeAnon releases bytes of p's anonymous memory, newest allocations
// first (memhog-style churn). It returns the pages actually freed
// (bounded by the process's resident set).
func (k *Kernel) FreeAnon(p *Process, bytes int64) int64 {
	target := units.BytesToPages(bytes)
	var freed int64
	for freed < target && len(p.anonChunks) > 0 {
		c := p.anonChunks[len(p.anonChunks)-1]
		p.anonChunks = p.anonChunks[:len(p.anonChunks)-1]
		pages := k.chunks[c].Pages()
		k.dropChunk(c)
		p.anonPages -= pages
		freed += pages
	}
	return freed
}

// ScrambleFreeLists gives a zone the allocator state of a long-running
// guest: it allocates every free page and releases them in random
// order, so the free lists no longer reflect onlining order — later
// allocations then spread across all memory blocks instead of packing
// the most recently onlined ones. Only the zone's current free memory
// is touched; allocated pages are unaffected, and no host population
// happens (the pages are never "touched" by a user).
//
// A short-lived "scrambler" process stands in for the reserving user,
// so PIDs and the exit hook advance as if it had owned the memory. The
// reservation and release themselves are the zone's
// ShuffleFreeLists: AllocReserved's huge-page order choices, then one
// rng.IntN per reserved chunk, swap-removing the victim.
func (k *Kernel) ScrambleFreeLists(z *mem.Zone, rng *rand.Rand) {
	p := k.Spawn("scrambler")
	p.AssignedZone = z
	z.ShuffleFreeLists(HugeOrder, rng.IntN)
	k.Exit(p)
}

// File returns (creating if needed) the named file of the given size.
func (k *Kernel) File(name string, sizeBytes int64) *CachedFile {
	if f, ok := k.files[name]; ok {
		return f
	}
	f := &CachedFile{Name: name, Zone: k.fileZone()}
	k.files[name] = f
	_ = sizeBytes
	return f
}

// TouchFile maps bytes of file f into p, faulting pages into the page
// cache on first access and reusing cached pages afterwards — the
// sharing that gives the N:1 model its memory savings (§6.3). The
// returned work covers major faults (allocate+zero+populate) for
// uncached pages and minor faults for cached ones. ok is false when the
// cache zone is exhausted.
func (k *Kernel) TouchFile(p *Process, f *CachedFile, bytes int64) (work sim.Duration, ok bool) {
	if p.exited {
		panic(fmt.Sprintf("guestos: touch on exited pid %d", p.PID))
	}
	npages := units.BytesToPages(bytes)
	if _, mapped := p.mappedFile[f]; !mapped {
		f.mapCount++
	}
	if npages > p.mappedFile[f] {
		p.mappedFile[f] = npages
	}
	// Minor faults for the pages already resident.
	cachedShare := npages
	if f.residentPages < cachedShare {
		cachedShare = f.residentPages
	}
	work = sim.Duration(cachedShare) * k.Cost.GuestFaultPerPage
	// Major faults extend the cache.
	var fresh int64
	zi := k.zoneIndex(f.Zone)
	for f.residentPages < npages {
		o := HugeOrder
		if remaining := npages - f.residentPages; remaining < 1<<HugeOrder {
			o = 0
		}
		pfn, got := f.Zone.AllocPage(o)
		for !got && o > 0 {
			o--
			pfn, got = f.Zone.AllocPage(o)
		}
		if !got {
			work += k.fileMajorWork(0, fresh)
			return work, false
		}
		f.chunks = append(f.chunks, k.newChunk(pfn, o, zi))
		pages := int64(1) << o
		f.residentPages += pages
		fresh += k.markPopulated(pfn, pages)
		work += k.fileMajorWork(pages, 0)
	}
	if fresh > 0 {
		work += k.VM.PopulatePages(fresh)
	}
	return work, true
}

func (k *Kernel) fileMajorWork(pages, fresh int64) sim.Duration {
	w := sim.Duration(pages) * (k.Cost.GuestFaultPerPage + k.Cost.ZeroPerPage)
	if fresh > 0 {
		w += k.VM.PopulatePages(fresh)
	}
	return w
}

// DropFile evicts a file's pages from the page cache (used by tests and
// partition teardown). The file must have no mappers.
func (k *Kernel) DropFile(f *CachedFile) {
	if f.mapCount != 0 {
		panic(fmt.Sprintf("guestos: dropping mapped file %q (mapcount %d)", f.Name, f.mapCount))
	}
	for _, c := range f.chunks {
		k.dropChunk(c)
	}
	f.chunks = nil
	f.residentPages = 0
	delete(k.files, f.Name)
}

// --- population (EPT) tracking ---

// markPopulated sets the populated bit for each page of the chunk and
// returns how many were newly populated (needing a nested fault). The
// whole chunk is one bulk bitset update, not a per-page loop, and no
// chunk straddles a block, so one block's count takes the fresh pages
// (and a full block answers without touching the bitmap).
func (k *Kernel) markPopulated(pfn mem.PFN, pages int64) int64 {
	blk := &k.blocks[pfn/units.PagesPerBlock]
	if blk.populated == units.PagesPerBlock {
		return 0 // a full block: no bit to set, no word to load
	}
	fresh := k.populated.setRange(pfn, pages)
	blk.populated += fresh
	return fresh
}

// PopulatedInRange counts host-backed pages in [start, start+count).
func (k *Kernel) PopulatedInRange(start mem.PFN, count int64) int64 {
	return k.populated.countRange(start, count)
}

// ReleaseRange clears population state for an unplugged range and
// returns the host frames released. It goes block by block on the
// per-block counts: a block with nothing populated is skipped, a block
// the range covers whole has its words cleared without counting bits,
// and only a block the range covers in part is cleared bit-range-wise.
func (k *Kernel) ReleaseRange(start mem.PFN, count int64) int64 {
	var n int64
	for end := start + count; start < end; {
		b := start / units.PagesPerBlock
		next := min((b+1)*units.PagesPerBlock, end)
		switch blk := &k.blocks[b]; {
		case blk.populated == 0:
		case next-start == units.PagesPerBlock:
			clear(k.populated.words[start/64 : next/64])
			n += blk.populated
			blk.populated = 0
		default:
			cleared := k.populated.clearRange(start, next-start)
			blk.populated -= cleared
			n += cleared
		}
		start = next
	}
	k.VM.ReleasePages(n)
	return n
}

// --- migration support for the offline path ---

// ChunksInRange appends to buf the allocated chunks whose head lies
// inside [start, start+count), in ascending address order, and returns
// the extended slice. It walks the per-block chunk index, so cost
// scales with the chunks present, not with the page span; a caller
// that passes its previous result back as buf[:0] allocates nothing.
func (k *Kernel) ChunksInRange(buf []ChunkID, start mem.PFN, count int64) []ChunkID {
	from := len(buf)
	end := start + count
	lastBlock := int64(len(k.blocks)) - 1
	for b := start / units.PagesPerBlock; b <= lastBlock && b*units.PagesPerBlock < end; b++ {
		for _, i := range k.blocks[b].chunks {
			if c := &k.chunks[i]; c.PFN >= start && c.PFN < end {
				buf = append(buf, ChunkID{idx: i, gen: c.gen})
			}
		}
	}
	// Live chunks never share a head, so the order is total.
	slices.SortFunc(buf[from:], func(a, b ChunkID) int {
		return cmp.Compare(k.chunks[a.idx].PFN, k.chunks[b.idx].PFN)
	})
	return buf
}

// MigrateChunk moves a chunk to a freshly allocated target in its zone
// (the source block must already be isolated so the allocator cannot
// hand back pages inside it). It returns the pages copied plus any
// extra guest latency from nested faults on unbacked target pages; ok
// is false when no target memory exists, which aborts the offline. The
// handle stays valid: the chunk moves, its slab entry does not.
func (k *Kernel) MigrateChunk(id ChunkID) (pages int64, extra sim.Duration, ok bool) {
	c := k.chunk(id)
	dst, got := k.zones[c.zone].AllocPage(int(c.Order))
	if !got {
		return 0, 0, false
	}
	k.delOwner(id.idx)
	c.PFN = dst
	k.addOwner(id.idx)
	if fresh := k.markPopulated(dst, c.Pages()); fresh > 0 {
		extra = k.VM.PopulatePages(fresh)
	}
	return c.Pages(), extra, true
}

// AllocReserved grabs pages of free memory for p without touching them
// — the balloon driver's reservation path: no zeroing, no population,
// no fault cost. It allocates greedily at the largest orders available,
// appends the chunks it reserved to buf, and returns the extended
// slice and how many pages they total (bounded by free memory).
func (k *Kernel) AllocReserved(buf []ChunkID, p *Process, pages int64) (chunks []ChunkID, got int64) {
	zone := k.anonZone(p)
	zi := k.zoneIndex(zone)
	for got < pages {
		pfn, o, ok := reserveChunk(zone, pages-got)
		if !ok {
			break
		}
		i := k.newChunk(pfn, o, zi)
		p.anonChunks = append(p.anonChunks, i)
		n := int64(1) << o
		p.anonPages += n
		buf = append(buf, ChunkID{idx: i, gen: k.chunks[i].gen})
		got += n
	}
	return buf, got
}

// reserveChunk allocates the next chunk of a reservation with remaining
// pages still to go: a huge page while at least one fits, else the
// largest order not exceeding remaining, falling back to smaller orders
// under fragmentation. ok is false once the zone has no free page.
func reserveChunk(zone *mem.Zone, remaining int64) (pfn mem.PFN, order int, ok bool) {
	o := HugeOrder
	if remaining < 1<<HugeOrder {
		o = 0
		for int64(1)<<(o+1) <= remaining {
			o++
		}
	}
	pfn, ok = zone.AllocPage(o)
	for !ok && o > 0 {
		o--
		pfn, ok = zone.AllocPage(o)
	}
	return pfn, o, ok
}

// ReleaseChunkFrames releases the host frames backing a chunk's pages
// (madvise after a balloon report) and returns how many were released.
func (k *Kernel) ReleaseChunkFrames(id ChunkID) int64 {
	c := k.chunk(id)
	return k.ReleaseRange(c.PFN, c.Pages())
}

// ReturnIsolatedGaps aborts an offline attempt on an isolated block:
// every page in [start, start+count) that is not covered by an
// allocated chunk goes back to the zone's allocator. It returns the
// pages re-freed.
func (k *Kernel) ReturnIsolatedGaps(z *mem.Zone, start mem.PFN, count int64) int64 {
	var returned int64
	gapStart := start
	for _, id := range k.ChunksInRange(nil, start, count) {
		c := &k.chunks[id.idx]
		if c.PFN > gapStart {
			z.FreePageRange(gapStart, c.PFN-gapStart)
			returned += c.PFN - gapStart
		}
		gapStart = c.PFN + c.Pages()
	}
	if end := start + count; end > gapStart {
		z.FreePageRange(gapStart, end-gapStart)
		returned += end - gapStart
	}
	return returned
}

// --- accounting ---

// AllocatedPages returns guest-allocated pages across all zones — the
// guest's view of memory usage (Figure 1, guest line).
func (k *Kernel) AllocatedPages() int64 {
	var n int64
	for _, z := range k.zones {
		n += z.NrAllocated()
	}
	return n
}

// CheckInvariants validates cross-layer consistency; O(total span), for
// tests.
func (k *Kernel) CheckInvariants() error {
	for _, z := range k.zones {
		if err := z.CheckInvariants(); err != nil {
			return err
		}
	}
	// The free list threads only free entries, each once.
	free := 0
	for i := k.freeChunk; i >= 0; i = k.chunks[i].slot {
		if int(i) >= len(k.chunks) || k.chunks[i].Order >= 0 || free >= len(k.chunks) {
			return fmt.Errorf("chunk slab free list broken at entry %d", i)
		}
		free++
	}
	var owned int64
	var indexedChunks int
	for b := range k.blocks {
		for slot, i := range k.blocks[b].chunks {
			if i < 0 || int(i) >= len(k.chunks) || k.chunks[i].Order < 0 {
				return fmt.Errorf("rmap block %d slot %d holds free or out-of-slab entry %d", b, slot, i)
			}
			c := &k.chunks[i]
			if c.PFN/units.PagesPerBlock != int64(b) {
				return fmt.Errorf("rmap block %d != chunk head %d's block", b, c.PFN)
			}
			if int(c.slot) != slot {
				return fmt.Errorf("chunk %d at rmap slot %d records slot %d", c.PFN, slot, c.slot)
			}
			if int(c.zone) >= len(k.zones) || !k.zones[c.zone].Contains(c.PFN) {
				return fmt.Errorf("chunk %d outside its zone %d", c.PFN, c.zone)
			}
			owned += c.Pages()
			indexedChunks++
		}
	}
	if indexedChunks+free != len(k.chunks) {
		return fmt.Errorf("chunk slab: %d entries, %d indexed + %d free", len(k.chunks), indexedChunks, free)
	}
	// Every owned chunk sits in its block's slice at the slot it records.
	indexed := func(i int32) error {
		if i < 0 || int(i) >= len(k.chunks) || k.chunks[i].Order < 0 {
			return fmt.Errorf("owner holds free or out-of-slab chunk entry %d", i)
		}
		c := &k.chunks[i]
		s := k.blocks[c.PFN/units.PagesPerBlock].chunks
		if c.slot < 0 || int(c.slot) >= len(s) || s[c.slot] != i {
			return fmt.Errorf("chunk %d (order %d) not at its rmap slot %d", c.PFN, c.Order, c.slot)
		}
		return nil
	}
	for _, p := range k.procs {
		for _, c := range p.anonChunks {
			if err := indexed(c); err != nil {
				return fmt.Errorf("pid %d: %w", p.PID, err)
			}
		}
	}
	for _, f := range k.files {
		for _, c := range f.chunks {
			if err := indexed(c); err != nil {
				return fmt.Errorf("file %q: %w", f.Name, err)
			}
		}
	}
	var allocated int64
	for _, z := range k.zones {
		allocated += z.NrAllocated()
	}
	if owned != allocated {
		return fmt.Errorf("rmap covers %d pages, zones report %d allocated", owned, allocated)
	}
	for b, blk := range k.blocks {
		if want := k.populated.countRange(int64(b)*units.PagesPerBlock, units.PagesPerBlock); blk.populated != want {
			return fmt.Errorf("block %d populated count %d != %d bits set", b, blk.populated, want)
		}
	}
	return nil
}

// --- bitset ---

type bitset struct{ words []uint64 }

// grow extends the bitset to n bits. The words past its length must be
// zero, as fresh storage and a Recycler's backings are, so the new
// words need no clearing.
func (b *bitset) grow(n int64) {
	if need := int((n + 63) / 64); need > len(b.words) {
		b.words = slices.Grow(b.words, need-len(b.words))[:need]
	}
}

// rangeMasks yields the word span [wlo, whi] of bit range [start,
// start+n) and the partial masks for the first and last word.
func rangeMasks(start, n int64) (wlo, whi int64, first, last uint64) {
	end := start + n - 1
	wlo, whi = start/64, end/64
	first = ^uint64(0) << (start % 64)
	last = ^uint64(0) >> (63 - end%64)
	return wlo, whi, first, last
}

// setRange sets bits [start, start+n), returning how many were
// previously clear. Whole 64-bit words are handled with single
// mask-and-popcount operations.
func (b *bitset) setRange(start, n int64) (fresh int64) {
	if n <= 0 {
		return 0
	}
	wlo, whi, first, last := rangeMasks(start, n)
	if wlo == whi {
		m := first & last
		fresh = int64(bits.OnesCount64(m &^ b.words[wlo]))
		b.words[wlo] |= m
		return fresh
	}
	fresh = int64(bits.OnesCount64(first &^ b.words[wlo]))
	b.words[wlo] |= first
	for w := wlo + 1; w < whi; w++ {
		fresh += int64(64 - bits.OnesCount64(b.words[w]))
		b.words[w] = ^uint64(0)
	}
	fresh += int64(bits.OnesCount64(last &^ b.words[whi]))
	b.words[whi] |= last
	return fresh
}

// clearRange clears bits [start, start+n), returning how many were
// previously set.
func (b *bitset) clearRange(start, n int64) (cleared int64) {
	if n <= 0 {
		return 0
	}
	wlo, whi, first, last := rangeMasks(start, n)
	if wlo == whi {
		m := first & last
		cleared = int64(bits.OnesCount64(m & b.words[wlo]))
		b.words[wlo] &^= m
		return cleared
	}
	cleared = int64(bits.OnesCount64(first & b.words[wlo]))
	b.words[wlo] &^= first
	for w := wlo + 1; w < whi; w++ {
		cleared += int64(bits.OnesCount64(b.words[w]))
		b.words[w] = 0
	}
	cleared += int64(bits.OnesCount64(last & b.words[whi]))
	b.words[whi] &^= last
	return cleared
}

// countRange returns the number of set bits in [start, start+n).
func (b *bitset) countRange(start, n int64) (set int64) {
	if n <= 0 {
		return 0
	}
	wlo, whi, first, last := rangeMasks(start, n)
	if wlo == whi {
		return int64(bits.OnesCount64(first & last & b.words[wlo]))
	}
	set = int64(bits.OnesCount64(first & b.words[wlo]))
	for w := wlo + 1; w < whi; w++ {
		set += int64(bits.OnesCount64(b.words[w]))
	}
	set += int64(bits.OnesCount64(last & b.words[whi]))
	return set
}
