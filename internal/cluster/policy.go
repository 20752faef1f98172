package cluster

import (
	"fmt"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// Policy places one cold scale-up on a host. The dispatcher routes
// warm-servable invocations to the host holding the idle instance
// before consulting the policy, so policies differ only in where new
// instances (and, transitively, new VMs) land — the decision that
// determines which host pays plug latency and, under pressure, unplug
// latency.
//
// Pick must be deterministic: equal cluster states give equal picks.
// Policies may keep internal state (round-robin's cursor), so one
// Policy value belongs to one Cluster.
type Policy interface {
	// Pick chooses the host for a cold start of fn. nodes is never
	// empty; Pick must return one of them.
	Pick(nodes []*Node, fn *workload.Function) *Node
}

// PolicyNames lists the built-in single-host policies in presentation
// order. The topology-aware policies are listed separately
// (DomainPolicyNames) so the PR 2 sweeps keep their exact row sets.
func PolicyNames() []string {
	return []string{"round-robin", "least-loaded", "headroom", "reclaim-aware"}
}

// DomainPolicyNames lists the blast-radius-aware policies. They score
// candidates against fleet-wide domain state and only differentiate
// themselves on a fleet with a topology.
func DomainPolicyNames() []string {
	return []string{"spread", "zone-headroom"}
}

// NewPolicy constructs a fresh instance of a built-in policy. cost is
// only used by reclaim-aware (nil selects the default model).
func NewPolicy(name string, cost *costmodel.Model) Policy {
	switch name {
	case "round-robin":
		return &RoundRobin{}
	case "least-loaded":
		return LeastLoaded{}
	case "headroom":
		return Headroom{}
	case "reclaim-aware":
		if cost == nil {
			cost = costmodel.Default()
		}
		return ReclaimAware{Cost: cost}
	case "spread":
		return &Spread{}
	case "zone-headroom":
		return &ZoneHeadroom{}
	default:
		panic(fmt.Sprintf("cluster: unknown policy %q", name))
	}
}

// fleetBound is implemented by policies that score candidates against
// fleet-wide domain state. New and Reset bind such a policy to
// its cluster; an unbound instance falls back to scoring over the
// candidate set alone (unit tests construct policies bare).
type fleetBound interface{ bind(c *Cluster) }

// bindPolicy attaches a fleet-bound policy to c (no-op for the
// candidate-only policies).
func bindPolicy(p Policy, c *Cluster) {
	if b, ok := p.(fleetBound); ok {
		b.bind(c)
	}
}

// RoundRobin cycles hosts regardless of state: the classic baseline
// that spreads VMs everywhere and lets every host run hot.
type RoundRobin struct {
	next int
}

// Pick implements Policy.
func (p *RoundRobin) Pick(nodes []*Node, fn *workload.Function) *Node {
	n := nodes[p.next%len(nodes)]
	p.next++
	return n
}

// LeastLoaded places on the host with the fewest live instances,
// balancing compute but ignoring memory state entirely.
type LeastLoaded struct{}

// Pick implements Policy.
func (LeastLoaded) Pick(nodes []*Node, fn *workload.Function) *Node {
	best := nodes[0]
	for _, n := range nodes[1:] {
		if n.LiveInstances() < best.LiveInstances() {
			best = n
		}
	}
	return best
}

// Headroom places on the host with the most free (uncommitted,
// unreserved, unqueued-for) memory: memory-aware but blind to how fast
// a full host can free memory.
type Headroom struct{}

// Pick implements Policy.
func (Headroom) Pick(nodes []*Node, fn *workload.Function) *Node {
	best := nodes[0]
	for _, n := range nodes[1:] {
		if n.HeadroomPages() > best.HeadroomPages() {
			best = n
		}
	}
	return best
}

// ReclaimAware scores each host by the memory-wait the new instance
// would suffer there: zero when the host has headroom, otherwise the
// estimated latency of reclaiming the deficit through that host's
// backend — discounted for reclamation already in flight. It is the
// policy that knows a Squeezy host can absorb an overflow placement in
// ~100 ms while a vanilla virtio-mem host would stall it for seconds.
type ReclaimAware struct {
	Cost *costmodel.Model
}

// Pick implements Policy.
func (p ReclaimAware) Pick(nodes []*Node, fn *workload.Function) *Node {
	instPages := units.BytesToPages(units.AlignUp(fn.MemoryLimit, units.BlockSize))
	best := nodes[0]
	bestPenalty := p.penalty(best, instPages)
	for _, n := range nodes[1:] {
		pen := p.penalty(n, instPages)
		if pen < bestPenalty || (pen == bestPenalty && n.HeadroomPages() > best.HeadroomPages()) {
			best, bestPenalty = n, pen
		}
	}
	return best
}

// strandedPenalty prices the part of a deficit that nothing on the host
// can satisfy — no free memory, no in-flight reclaim, no idle instance
// to evict — so a waiter placed there stalls until a keep-alive window
// expires. Keep-alive horizons are tens of seconds, far beyond any
// unplug path, so the constant only needs to dominate every
// UnplugEstimate a movable backend can produce.
const strandedPenalty = 10 * costmodel.ReclaimDrainTimeout

// penalty estimates the memory-wait of placing an instPages scale-up on
// n: nothing when it fits; the unplug-path latency for the part of the
// deficit coverable by evicting idle instances now (discounted for
// reclaim already in flight); and a dominating stranded term for the
// part not even eviction can free.
func (p ReclaimAware) penalty(n *Node, instPages int64) sim.Duration {
	deficit := instPages - n.HeadroomPages()
	if deficit <= 0 {
		return 0
	}
	inFlight := min(n.RT.ReclaimInFlightPages(), deficit)
	fresh := deficit - inFlight
	evictable := min(n.RT.IdleReclaimablePages(), fresh)
	stranded := fresh - evictable
	// In-flight reclaim is discounted, not free: its pages are spoken
	// for by the FIFO queue that triggered it, and a new placement
	// waits behind that queue. A 25% discount keeps "host is actively
	// reclaiming" attractive without cancelling queue depth outright.
	pen := UnplugEstimate(p.Cost, n.Backend, units.PagesToBytes(evictable)) +
		UnplugEstimate(p.Cost, n.Backend, units.PagesToBytes(inFlight))*3/4
	if stranded > 0 {
		pen += strandedPenalty +
			UnplugEstimate(p.Cost, n.Backend, units.PagesToBytes(stranded))
	}
	return pen
}

// Spread minimizes the blast radius of a correlated failure: it places
// a function's new instance in the rack currently holding the fewest
// live instances of that function (over the whole placement-eligible
// fleet, not just the candidate set), so losing any one rack takes out
// the smallest possible share of the function's capacity and warm
// pool. Ties break to the candidate with the most headroom, then to
// the lowest host ID (scan order). On a flat fleet every host is rack
// 0 and Spread degrades to pure headroom scoring.
type Spread struct {
	c        *Cluster
	rackLoad []int // scratch, reused across picks
}

func (p *Spread) bind(c *Cluster) { p.c = c }

// Pick implements Policy.
func (p *Spread) Pick(nodes []*Node, fn *workload.Function) *Node {
	view := nodes
	if p.c != nil {
		view = p.c.active
	}
	maxRack := 0
	for _, n := range view {
		maxRack = max(maxRack, n.Rack)
	}
	for _, n := range nodes {
		maxRack = max(maxRack, n.Rack)
	}
	if cap(p.rackLoad) <= maxRack {
		p.rackLoad = make([]int, maxRack+1)
	}
	load := p.rackLoad[:maxRack+1]
	clear(load)
	for _, n := range view {
		if fv := n.vms[fn.Name]; fv != nil {
			load[n.Rack] += fv.LiveInstances()
		}
	}
	best := nodes[0]
	for _, n := range nodes[1:] {
		if load[n.Rack] < load[best.Rack] ||
			(load[n.Rack] == load[best.Rack] && n.HeadroomPages() > best.HeadroomPages()) {
			best = n
		}
	}
	return best
}

// ZoneHeadroom balances reclaim headroom across zones: it places in
// the zone with the most aggregate free-and-unclaimed memory (over the
// placement-eligible fleet), then on the roomiest candidate inside it
// — so no zone's reclaim capacity is silently exhausted while another
// sits idle, and a zone-wide brown-out always leaves a survivor zone
// with headroom to absorb the displaced load. On a flat fleet it
// degrades to pure headroom scoring.
type ZoneHeadroom struct {
	c        *Cluster
	zoneHead []int64 // scratch, reused across picks
}

func (p *ZoneHeadroom) bind(c *Cluster) { p.c = c }

// Pick implements Policy.
func (p *ZoneHeadroom) Pick(nodes []*Node, fn *workload.Function) *Node {
	view := nodes
	if p.c != nil {
		view = p.c.active
	}
	maxZone := 0
	for _, n := range view {
		maxZone = max(maxZone, n.Zone)
	}
	for _, n := range nodes {
		maxZone = max(maxZone, n.Zone)
	}
	if cap(p.zoneHead) <= maxZone {
		p.zoneHead = make([]int64, maxZone+1)
	}
	head := p.zoneHead[:maxZone+1]
	clear(head)
	for _, n := range view {
		head[n.Zone] += n.HeadroomPages()
	}
	best := nodes[0]
	for _, n := range nodes[1:] {
		if head[n.Zone] > head[best.Zone] ||
			(head[n.Zone] == head[best.Zone] && n.HeadroomPages() > best.HeadroomPages()) {
			best = n
		}
	}
	return best
}

// UnplugEstimate predicts how long the backend needs to reclaim bytes
// from a loaded guest, from the cost model's per-block and per-page
// constants. It deliberately mirrors the shape of each backend's unplug
// path rather than simulating it: Squeezy pays only offline metadata
// and VM exits; the movable-zone backends additionally migrate (about
// half the span, on average) and — on hardened kernels — zero every
// page. Static VMs cannot give memory back at all, which the sentinel
// return makes prohibitively expensive for any scorer.
func UnplugEstimate(m *costmodel.Model, kind faas.BackendKind, bytes int64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	blocks := units.BytesToBlocks(units.AlignUp(bytes, units.BlockSize))
	pages := units.BytesToPages(bytes)
	switch kind {
	case faas.Static:
		return sim.Duration(1) << 50 // ~13 days: effectively never
	case faas.Squeezy:
		return sim.Duration(blocks) * (m.OfflineMetaPerBlockSqueezy + m.VMExitPerBlock)
	default: // VirtioMem, Harvest
		d := sim.Duration(blocks) * (m.OfflineMetaPerBlockVanilla + m.VMExitPerBlock)
		d += sim.Duration(pages/2) * m.MigratePerPage
		if m.ZeroOnUnplug {
			d += sim.Duration(pages) * m.ZeroPerPage
		}
		return d
	}
}
