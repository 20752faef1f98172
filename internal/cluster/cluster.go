package cluster

import (
	"fmt"
	"time"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/fault"
	"squeezy/internal/hostmem"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// Config sizes a fleet. The zero value of optional fields selects
// sensible defaults (see NewSharded).
type Config struct {
	// Hosts is the number of simulated hosts.
	Hosts int
	// HostMemBytes is each host's memory capacity; 0 means unlimited
	// (no placement decision ever matters — useful as a baseline).
	HostMemBytes int64
	// Backend is the reclamation mechanism of every VM in the fleet.
	Backend faas.BackendKind
	// N is the per-VM concurrency factor (default 8).
	N int
	// KeepAlive is the idle window before instance eviction (default
	// 60 s; shorter than the paper's 2 min so fleet runs churn).
	KeepAlive sim.Duration
	// ProactiveFactor is the runtime's pressure over-eviction factor
	// (default 1.0; the Harvest backend conventionally uses 1.5).
	ProactiveFactor float64
	// HarvestBufferInstances caps each Harvest VM's slack buffer in
	// instance sizes (default 2).
	HarvestBufferInstances int
	// PhaseBounds, when non-empty, splits latency metrics into phases at
	// the given simulated times (strictly ascending): phase i covers
	// [bounds[i-1], bounds[i]). Churn experiments bound phases at the
	// failure/drain instant to isolate the post-event cold-start storm.
	PhaseBounds []sim.Time
	// Resilience, when non-nil, turns on the dispatcher resilience
	// layer — per-attempt timeouts with capped-backoff retries, hedged
	// dispatch, load shedding (resilience.go). nil preserves the plain
	// dispatch path bit-for-bit.
	Resilience *ResilienceConfig
	// Topology, when non-nil, places hosts into failure domains
	// (topology.go) and optionally gives them heterogeneous memory.
	// nil is a flat fleet: domain fault events are no-ops and the
	// domain-aware policies degrade to headroom scoring.
	Topology *Topology
	// Repace, when non-nil, turns on recovery-storm control
	// (repace.go): displaced in-flight work re-dispatches through a
	// paced, priority-ordered queue instead of slamming the survivors
	// in one boundary. nil preserves immediate re-placement bit-for-bit.
	Repace *RepaceConfig
	// Sketch, when non-nil, switches every latency sample — per host
	// and fleet-merged, phased and unphased — to bounded-memory
	// reservoir mode (stats.SketchConfig): O(K) memory per sample at
	// any invocation count, percentiles within stats.RankErrorBound(K)
	// of exact. Each sample's priority stream is derived from the host
	// ID and metric index, so sketched runs stay shard-, worker-, and
	// merge-order invariant. nil (the default) retains every
	// observation exactly, preserving the recorded tables bit-for-bit.
	Sketch *stats.SketchConfig
}

// Node is one simulated host: a private scheduler, memory pool, and
// runtime, plus the per-function VMs the dispatcher has placed on it.
// Between dispatcher epochs a node's simulation is fully independent
// of every other node's, which is what lets the final drain run
// disjoint node sets on parallel shard workers.
type Node struct {
	ID      int
	Backend faas.BackendKind
	// Rack and Zone are the host's failure domains (both 0 on a flat
	// fleet), fixed at construction from Config.Topology.
	Rack int
	Zone int
	// Sched is the host's private event scheduler. All of the host's
	// simulation state (runtime, broker, VMs, kernels) lives on it;
	// the dispatcher only touches it at epoch boundaries, when the
	// host is paused at the boundary time.
	Sched *sim.Scheduler
	Host  *hostmem.Host
	RT    *faas.Runtime
	// Rec is the host's private recycler: kernels, vmm.VMs, and FuncVM
	// shells released by a finished run back this host's next run.
	// Per-host arenas keep shard workers from ever sharing pool state.
	Rec *faas.Recycler
	// M accumulates the host's completion-side metrics. Completion
	// callbacks run while shard workers advance the host, so they must
	// write host-local state only; the fleet view is merged from the
	// per-host metrics in host-ID order (Stats).
	M NodeMetrics
	// Obs is the host's trace recorder (nil when tracing is off). Like M
	// it is host-private: written only by whichever worker advances this
	// host, merged in host-ID order at export.
	Obs *obs.Recorder

	vms     map[string]*faas.FuncVM
	vmOrder []*faas.FuncVM // creation order, for deterministic iteration

	// state tracks fleet membership (fleetdyn.go): active hosts take new
	// placements, draining hosts only finish what they have, dead hosts
	// never advance again.
	state nodeState
	// partitioned counts the open RackPartition windows covering this
	// host (faults.go). While > 0 an active host leaves the placement
	// set but keeps advancing; a counter rather than a flag so
	// overlapping windows stack and unwind correctly.
	partitioned int
	// inflight is the host's dispatcher-routed invocations that have not
	// completed, in routing order. The dispatcher appends at route time
	// (host paused at a boundary); the completion wrapper removes
	// host-locally. On failure or drain expiry the survivors re-place in
	// this order, exactly once each.
	inflight []*flight
	// flightFree holds recycled flight records. Flights retire on the
	// serving host's worker, so the pool is per host, never fleet-wide.
	flightFree []*flight

	// Resilience-layer state (resilience.go): attempts is the host's
	// racing attempts (the resilient inflight); settled is the completed
	// attempts parked host-locally until the dispatcher resolves them at
	// the next boundary. Both empty when resilience is off.
	attempts []*attempt
	settled  []*attempt
	// inj is the host's fault injector (faults.go); nil when the run has
	// no fault plan.
	inj *fault.Injector
}

// flight is one dispatcher-routed invocation from arrival to
// completion. It survives host failure: re-placement routes the same
// flight to a new host, and the recorded latency spans the original
// arrival — lost work is paid, not hidden.
type flight struct {
	fn       *workload.Function
	arrival  sim.Time
	onDone   func(faas.Result)
	replaced bool // re-placed after a host failure or drain expiry
	// node is the host serving the current placement.
	node *Node
	// complete is fl.finish bound once per record: the flight itself is
	// the completion target of every placement, so routing an
	// invocation allocates no closure.
	complete func(faas.Result)
}

// newFlight takes a flight record off the host's free list (or
// allocates one) for an invocation of fn that arrived at arrival.
func (n *Node) newFlight(fn *workload.Function, arrival sim.Time, onDone func(faas.Result)) *flight {
	var fl *flight
	if k := len(n.flightFree); k > 0 {
		fl = n.flightFree[k-1]
		n.flightFree[k-1] = nil
		n.flightFree = n.flightFree[:k-1]
	} else {
		fl = new(flight)
		fl.complete = fl.finish
	}
	fl.fn, fl.arrival, fl.onDone, fl.replaced = fn, arrival, onDone, false
	return fl
}

// LiveInstances returns live (starting, busy, idle) instances on the
// host.
func (n *Node) LiveInstances() int { return n.RT.LiveInstances() }

// FreePages returns pages available for new grants on the host.
func (n *Node) FreePages() int64 { return n.RT.Broker.FreePages() }

// QueuedPages returns pages queued behind the host's broker.
func (n *Node) QueuedPages() int64 { return n.RT.Broker.QueuedPages() }

// HeadroomPages returns free pages net of the queue already waiting for
// them — the memory a new placement could actually claim.
func (n *Node) HeadroomPages() int64 { return n.FreePages() - n.QueuedPages() }

// VM returns the host's VM for the named function, or nil.
func (n *Node) VM(fnName string) *faas.FuncVM { return n.vms[fnName] }

// VMs returns the host's VMs in creation order.
func (n *Node) VMs() []*faas.FuncVM { return n.vmOrder }

// NodeMetrics is one host's completion-side accounting. Latency
// samples are in milliseconds.
type NodeMetrics struct {
	ColdStarts int
	WarmStarts int
	Dropped    int
	// Failed counts completions whose work broke — injected boot
	// failures and crashes, or a resilient flight's exhausted retry
	// budget — as opposed to Dropped (resources exhausted).
	Failed int

	ColdLatMs *stats.Sample
	WarmLatMs *stats.Sample
	MemWaitMs *stats.Sample

	// ColdPhase and LatPhase split cold and all completed latencies by
	// completion time into the phases of Config.PhaseBounds; nil when no
	// bounds are configured.
	ColdPhase *stats.PhasedSample
	LatPhase  *stats.PhasedSample
}

func newNodeMetrics() NodeMetrics {
	return NodeMetrics{
		ColdLatMs: &stats.Sample{}, WarmLatMs: &stats.Sample{}, MemWaitMs: &stats.Sample{},
	}
}

func (m *NodeMetrics) reset() {
	m.ColdStarts, m.WarmStarts, m.Dropped, m.Failed = 0, 0, 0, 0
	m.ColdLatMs.Reset()
	m.WarmLatMs.Reset()
	m.MemWaitMs.Reset()
}

// fleetSketchHost is the pseudo host ID behind the fleet-merged
// samples' sketch streams, far above any real host the autoscaler
// could ever join.
const fleetSketchHost = 1 << 20

// applySketch moves the metrics' samples into (or out of) reservoir
// mode for a new run. Each sample gets a distinct priority stream
// derived from (host ID, metric index) — a pure function of the
// host's identity, so sketched runs are as shard- and worker-count
// invariant as exact ones. Call with every sample empty: after
// newNodeMetrics/reset, and after initPhases (which rebuilds the
// phased samples in exact mode).
func (m *NodeMetrics) applySketch(cfg *stats.SketchConfig, host int) {
	apply := func(s *stats.Sample, idx uint64) {
		if cfg == nil {
			if s.Sketched() {
				s.DisableSketch()
			}
			return
		}
		c := *cfg
		c.Stream += uint64(host+1)*16 + idx
		s.EnableSketch(c)
	}
	apply(m.ColdLatMs, 0)
	apply(m.WarmLatMs, 1)
	apply(m.MemWaitMs, 2)
	if cfg != nil && m.ColdPhase != nil {
		c := *cfg
		c.Stream += uint64(host+1)*16 + 3
		m.ColdPhase.EnableSketch(c)
		c.Stream++
		m.LatPhase.EnableSketch(c)
	}
}

// initPhases (re)builds the phase-split samples for the given bounds,
// or clears them when bounds are empty.
func (m *NodeMetrics) initPhases(bounds []sim.Time) {
	if len(bounds) == 0 {
		m.ColdPhase, m.LatPhase = nil, nil
		return
	}
	secs := make([]float64, len(bounds))
	for i, b := range bounds {
		secs[i] = b.Seconds()
	}
	m.ColdPhase = stats.NewPhased(secs...)
	m.LatPhase = stats.NewPhased(secs...)
}

// Metrics aggregates fleet-wide outcomes. Latency samples are in
// milliseconds. The dispatcher-side counters (Invocations,
// AdmissionDrops) and the memory series are written directly by the
// serial dispatcher; the completion-side fields are merged from the
// per-host NodeMetrics by Stats, in host-ID order, so the aggregate is
// identical at every shard count.
type Metrics struct {
	Invocations int
	ColdStarts  int
	WarmStarts  int
	// Dropped counts requests that entered a VM and failed (OOM-retry
	// budget exhausted); AdmissionDrops counts requests no host could
	// even accept a VM for.
	Dropped        int
	AdmissionDrops int
	// Failed counts completions whose work broke (injected boot
	// failures, crashes, exhausted retries), merged from the per-host
	// metrics by Stats.
	Failed int

	ColdLatMs *stats.Sample
	WarmLatMs *stats.Sample
	// MemWaitMs samples the memory-queueing phase of every cold start —
	// the fleet's reclamation stall time.
	MemWaitMs *stats.Sample

	// ColdPhase and LatPhase are the fleet-wide phase-split latency
	// views (Config.PhaseBounds), merged from the per-host samples by
	// Stats; nil when no bounds are configured.
	ColdPhase *stats.PhasedSample
	LatPhase  *stats.PhasedSample

	// Fleet-dynamics counters (fleetdyn.go), written by the serial
	// dispatcher only.
	HostJoins  int
	HostFails  int
	HostDrains int
	// Replaced counts re-placement attempts of in-flight invocations
	// after a host failure or drain-deadline expiry (a re-place the full
	// fleet cannot admit still counts here and in AdmissionDrops).
	Replaced int
	// WarmLost counts warm idle instances destroyed by host failures.
	WarmLost int
	// RackEvents counts domain fault events that actually expanded onto
	// at least one live host (dangling racks and flat fleets don't
	// count — they are no-ops).
	RackEvents int
	// Paced counts displaced invocations that went through the paced
	// re-placement queue instead of re-dispatching immediately
	// (repace.go); each also counts in Replaced once dispatched.
	Paced int

	// Resilience counters (resilience.go), written by the serial
	// dispatcher only: invocations shed at admission under memory
	// pressure, retry attempts launched, hedge attempts launched, hedges
	// that won their race, and attempts that exceeded the dispatch
	// deadline.
	Shed      int
	Retries   int
	Hedges    int
	HedgeWins int
	TimedOut  int

	// Committed and Populated are fleet-wide memory time series in GiB,
	// fed by SampleMemory at dispatcher epochs.
	Committed stats.TimeSeries
	Populated stats.TimeSeries
}

// ShardedCluster is a fleet of hosts behind one dispatcher, executed
// as per-host sub-simulations: every host runs on its own scheduler,
// and the epoch engine (shard.go) advances all hosts in lockstep to
// each dispatcher boundary — an invocation to route or a fleet-wide
// memory sample — merging the hosts back into one deterministic
// timeline at every boundary.
//
// Hosts interact only through the dispatcher: warm routing, scale-up
// placement, and admission decisions all read host state while every
// host is paused at the boundary time, and all host-side consequences
// (grants, boots, reclaim pressure) play out host-locally between
// boundaries. The dispatcher holds no RNG, iterates hosts in slice
// order, and breaks every tie by host ID, so a fleet run is a pure
// function of its traces and seed — at any shard count, on any worker
// pool, byte-identical to the serial single-shard run.
type ShardedCluster struct {
	Cost   *costmodel.Model
	Cfg    Config
	Policy Policy
	// Nodes holds every host that ever existed this run, in host-ID
	// order — dead hosts included, so their metrics still merge. The
	// fleet-dynamics views below narrow it.
	Nodes []*Node

	// Exec, when non-nil, runs the final drain's shard tasks —
	// possibly in parallel — and returns when all have completed. The
	// tasks touch disjoint hosts, so any execution order (or true
	// concurrency) yields identical results. nil runs them serially.
	// Epoch advances never go through Exec; they run inline.
	Exec func(tasks []func())

	Metrics Metrics

	now sim.Time // dispatcher clock: the current epoch boundary

	// Fleet-dynamics state (fleetdyn.go). active is the placement-
	// eligible subset of Nodes; live additionally includes draining
	// hosts — everything that still advances. Both stay in host-ID
	// order; with no churn, active == live == Nodes.
	active    []*Node
	live      []*Node
	fleetQ    []FleetEvent // pending fleet events, sorted by T, FIFO at ties
	autoscale *AutoscaleConfig
	lastScale sim.Time // autoscaler cooldown anchor
	scaled    bool     // an autoscaler action has happened this run

	// Resilience state (resilience.go): resil is the normalized config
	// (nil = plain dispatch), resilQ the pending timed decisions sorted
	// by T, FIFO at ties; horizon flips after the final drain so
	// late-settling failures stop scheduling retries.
	resil   *ResilienceConfig
	resilQ  []resilEvent
	horizon bool

	// Fault-injection state (faults.go): the pending plan sorted by T,
	// the open windows sorted by expiry, and the plan seed every host
	// injector derives its decision stream from.
	faultQ    []fault.Event
	faultOpen []openFault
	faultSeed uint64
	faultsOn  bool

	// Recovery-storm control (repace.go): repace is the normalized
	// pacing config (nil = immediate re-placement), repaceQ the
	// priority-ordered queue of displaced work, repaceAt the next
	// pacing boundary (0 = unarmed).
	repace   *RepaceConfig
	repaceQ  []repaceEntry
	repaceAt sim.Time

	// Observability (internal/obs): obsT is the run's trace, fleetObs its
	// fleet-level recorder written only by the serial dispatcher. Both are
	// nil when tracing is off — the common case, which every call site
	// guards so the disabled path costs one nil check.
	obsT     *obs.Trace
	fleetObs *obs.Recorder

	// Epoch-engine state (shard.go).
	shardsWanted int             // requested drain shard count
	shardWalls   []time.Duration // wall-clock per drain shard this run

	// slack is nodesWithSlack's result buffer, reused by every serial
	// dispatch (no policy keeps the candidate slice).
	slack []*Node
}

// withDefaults fills the zero-valued optional fields.
func (cfg Config) withDefaults() Config {
	if cfg.Hosts <= 0 {
		panic("cluster: need at least one host")
	}
	if cfg.N <= 0 {
		cfg.N = 8
	}
	if cfg.KeepAlive <= 0 {
		cfg.KeepAlive = 60 * sim.Second
	}
	if cfg.ProactiveFactor <= 0 {
		cfg.ProactiveFactor = 1.0
		if cfg.Backend == faas.Harvest {
			cfg.ProactiveFactor = 1.5
		}
	}
	if cfg.HarvestBufferInstances <= 0 {
		cfg.HarvestBufferInstances = 2
	}
	if cfg.Resilience != nil {
		r := cfg.Resilience.withDefaults()
		cfg.Resilience = &r
	}
	if cfg.Repace != nil {
		r := cfg.Repace.withDefaults()
		cfg.Repace = &r
	}
	return cfg
}

// NewSharded builds a fleet of cfg.Hosts identical hosts, each on its
// own scheduler with its own recycler, with placement delegated to
// policy.
func NewSharded(cost *costmodel.Model, cfg Config, policy Policy) *ShardedCluster {
	c := &ShardedCluster{
		Cost: cost, Cfg: cfg.withDefaults(), Policy: policy,
		Metrics: Metrics{
			ColdLatMs: &stats.Sample{}, WarmLatMs: &stats.Sample{}, MemWaitMs: &stats.Sample{},
		},
	}
	for i := 0; i < c.Cfg.Hosts; i++ {
		c.Nodes = append(c.Nodes, c.newNode(i))
	}
	c.Metrics.ColdPhase, c.Metrics.LatPhase = fleetPhases(c.Cfg.PhaseBounds)
	c.Metrics.applySketch(c.Cfg.Sketch)
	c.active = append(c.active, c.Nodes...)
	c.live = append(c.live, c.Nodes...)
	c.resil = c.Cfg.Resilience
	c.repace = c.Cfg.Repace
	bindPolicy(policy, c)
	return c
}

// fleetPhases builds the fleet-level phase-split samples for bounds,
// or nils when unconfigured.
func fleetPhases(bounds []sim.Time) (cold, all *stats.PhasedSample) {
	var m NodeMetrics
	m.initPhases(bounds)
	return m.ColdPhase, m.LatPhase
}

// applySketch mirrors NodeMetrics.applySketch for the fleet-merged
// samples, under the reserved fleetSketchHost stream so the merge
// destination never collides with a real host's priorities.
func (m *Metrics) applySketch(cfg *stats.SketchConfig) {
	v := NodeMetrics{
		ColdLatMs: m.ColdLatMs, WarmLatMs: m.WarmLatMs, MemWaitMs: m.MemWaitMs,
		ColdPhase: m.ColdPhase, LatPhase: m.LatPhase,
	}
	v.applySketch(cfg, fleetSketchHost)
}

// newNode builds one host under the cluster's current config.
func (c *ShardedCluster) newNode(id int) *Node {
	topo := c.Cfg.Topology
	sched := sim.NewScheduler()
	host := hostmem.New(topo.HostMem(id, c.Cfg.HostMemBytes))
	rec := faas.NewRecycler()
	rt := faas.NewRuntime(sched, host, c.Cost)
	rt.ProactiveFactor = c.Cfg.ProactiveFactor
	rt.Recycle = rec
	rack := topo.RackOf(id)
	n := &Node{
		ID: id, Backend: c.Cfg.Backend, Rack: rack, Zone: topo.ZoneOfRack(rack),
		Sched: sched, Host: host, RT: rt, Rec: rec,
		M:   newNodeMetrics(),
		vms: make(map[string]*faas.FuncVM),
	}
	n.M.initPhases(c.Cfg.PhaseBounds)
	n.M.applySketch(c.Cfg.Sketch, id)
	return n
}

// Reset rebuilds the cluster for a new run under a (possibly
// different) config and policy, reusing the fleet's storage: node
// structs with their schedulers, recyclers, VM maps, and metric
// buffers stay, each host pool is reset in place, and the previous
// run's guest kernels, vmm.VMs, and agent shells are harvested into
// the per-host recyclers. A reset cluster replays a run identically
// to a freshly constructed one.
func (c *ShardedCluster) Reset(cost *costmodel.Model, cfg Config, policy Policy) {
	c.Release()
	c.Cost = cost
	c.Cfg = cfg.withDefaults()
	c.Policy = policy
	c.now = 0
	if len(c.Nodes) > c.Cfg.Hosts {
		clear(c.Nodes[c.Cfg.Hosts:])
		c.Nodes = c.Nodes[:c.Cfg.Hosts]
	}
	for i, n := range c.Nodes {
		n.ID = i
		n.Backend = c.Cfg.Backend
		n.Rack = c.Cfg.Topology.RackOf(i)
		n.Zone = c.Cfg.Topology.ZoneOfRack(n.Rack)
		n.Sched.Reset()
		n.Host.Reset(c.Cfg.Topology.HostMem(i, c.Cfg.HostMemBytes))
		rt := faas.NewRuntime(n.Sched, n.Host, cost)
		rt.ProactiveFactor = c.Cfg.ProactiveFactor
		rt.Recycle = n.Rec
		n.RT = rt
		n.M.reset()
		n.M.initPhases(c.Cfg.PhaseBounds)
		n.M.applySketch(c.Cfg.Sketch, i)
		n.state = nodeActive
		n.partitioned = 0
		n.Obs = nil
		clear(n.inflight) // drop stale *flight pointers
		n.inflight = n.inflight[:0]
		clear(n.attempts) // drop stale *attempt pointers
		n.attempts = n.attempts[:0]
		clear(n.settled)
		n.settled = n.settled[:0]
		n.inj = nil
		clear(n.vms)
		clear(n.vmOrder) // drop stale *FuncVM pointers
		n.vmOrder = n.vmOrder[:0]
	}
	for len(c.Nodes) < c.Cfg.Hosts {
		c.Nodes = append(c.Nodes, c.newNode(len(c.Nodes)))
	}
	c.active = append(c.active[:0], c.Nodes...)
	c.live = append(c.live[:0], c.Nodes...)
	c.fleetQ = c.fleetQ[:0]
	c.resil = c.Cfg.Resilience
	clear(c.resilQ) // drop stale *rflight pointers
	c.resilQ = c.resilQ[:0]
	c.horizon = false
	clear(c.faultOpen)
	c.faultQ, c.faultOpen = c.faultQ[:0], c.faultOpen[:0]
	c.faultSeed, c.faultsOn = 0, false
	c.repace = c.Cfg.Repace
	clear(c.repaceQ) // drop stale *flight/*rflight pointers
	c.repaceQ = c.repaceQ[:0]
	c.repaceAt = 0
	c.obsT, c.fleetObs = nil, nil
	c.autoscale = nil
	c.lastScale, c.scaled = 0, false
	c.shardsWanted, c.shardWalls = 0, nil
	clear(c.slack[:cap(c.slack)]) // drop stale *Node pointers
	bindPolicy(policy, c)
	m := &c.Metrics
	m.Invocations, m.ColdStarts, m.WarmStarts, m.Dropped, m.AdmissionDrops = 0, 0, 0, 0, 0
	m.Failed = 0
	m.HostJoins, m.HostFails, m.HostDrains, m.Replaced, m.WarmLost = 0, 0, 0, 0, 0
	m.RackEvents, m.Paced = 0, 0
	m.Shed, m.Retries, m.Hedges, m.HedgeWins, m.TimedOut = 0, 0, 0, 0, 0
	m.ColdLatMs.Reset()
	m.WarmLatMs.Reset()
	m.MemWaitMs.Reset()
	m.ColdPhase, m.LatPhase = fleetPhases(c.Cfg.PhaseBounds)
	m.applySketch(c.Cfg.Sketch)
	m.Committed.Reset()
	m.Populated.Reset()
}

// Release harvests every node's guest kernels, vmm.VMs, and FuncVM
// shells into its per-host recycler. The fleet's VMs must not be used
// afterwards; Reset calls it before rebuilding.
func (c *ShardedCluster) Release() {
	for _, n := range c.Nodes {
		n.RT.Release()
	}
}

// Now returns the dispatcher clock: the epoch boundary the fleet last
// advanced to.
func (c *ShardedCluster) Now() sim.Time { return c.now }

// AttachObs enables tracing into t: the fleet track records dispatcher
// decisions on the dispatcher clock, and every host (including ones
// that join later) gets a host track on its private scheduler. Call
// right after NewSharded/Reset, before the run; nil detaches. The
// recorders only observe — no call site reads them back — so an
// attached trace provably never perturbs the simulation.
func (c *ShardedCluster) AttachObs(t *obs.Trace) {
	c.obsT = t
	if t == nil {
		c.fleetObs = nil
		for _, n := range c.Nodes {
			n.Obs = nil
			n.RT.Obs = nil
		}
		return
	}
	c.fleetObs = t.FleetTrack(c)
	for _, n := range c.Nodes {
		c.attachNodeObs(n)
	}
}

// attachNodeObs binds host n to its track in the attached trace (no-op
// when tracing is off). Runs serially: at attach time or at a join
// boundary.
func (c *ShardedCluster) attachNodeObs(n *Node) {
	if c.obsT == nil {
		return
	}
	n.Obs = c.obsT.HostTrack(n.ID, n.Sched)
	n.RT.Obs = n.Obs
}

// Invoke routes one invocation of fn through the dispatcher, in three
// tiers: (1) a host with a warm idle instance serves it immediately;
// (2) otherwise the policy picks among hosts whose existing VM for fn
// still has concurrency slots (scale up in place — booting a second VM
// for a function whose VM has room just burns boot memory); (3) only
// when every existing VM is saturated does the policy pick across the
// whole fleet, booting a new VM if needed. onDone may be nil.
//
// Invoke must be called at an epoch boundary: every host paused at the
// dispatcher clock (AdvanceTo/Drain establish this). The routing
// decision reads fleet-wide state; the routed request's consequences
// are host-local events that play out when the hosts advance again.
func (c *ShardedCluster) Invoke(fn *workload.Function, onDone func(faas.Result)) {
	c.Metrics.Invocations++
	if c.fleetObs != nil {
		c.fleetObs.Count("invocations", 1)
	}
	if c.resil != nil {
		c.invokeResilient(fn, onDone)
		return
	}
	if c.repace != nil && c.repace.Shed && c.shouldShed(fn) {
		c.shedInvocation(fn, onDone)
		return
	}
	c.route(fn, c.now, onDone, nil)
}

// route places one invocation through the dispatcher tiers, over the
// active hosts only: a fresh one from Invoke (fl nil; its flight record
// comes from the serving host's pool) or a flight re-placed after a
// host failure. It runs serially at an epoch boundary.
func (c *ShardedCluster) route(fn *workload.Function, arrival sim.Time, onDone func(faas.Result), fl *flight) {
	tier, serving, fv := c.chooseVM(fn, nil)
	if fv == nil {
		// No host can even boot a VM for fn: admission-drop rather than
		// panic the host model with an unbackable boot.
		c.Metrics.AdmissionDrops++
		if c.fleetObs != nil {
			c.fleetObs.Count("admission_drops", 1)
			c.fleetObs.Instant("admission-drop: "+fn.Name, obs.CatInvoke)
		}
		if onDone != nil {
			onDone(faas.Result{Fn: fn, Arrival: arrival, Done: c.now, Dropped: true})
		}
		return
	}
	if c.fleetObs != nil {
		c.fleetObs.Count("dispatch/"+tier, 1)
		c.fleetObs.Instant("dispatch/"+tier+": "+fn.Name, obs.CatInvoke,
			obs.I("host", int64(serving.ID)))
	}
	if fl == nil {
		fl = serving.newFlight(fn, arrival, onDone)
	}
	fl.node = serving
	serving.inflight = append(serving.inflight, fl)
	fv.Invoke(fn, fl.complete)
}

// chooseVM resolves one placement through the dispatcher tiers and
// returns the tier label, the serving host, and its VM (nils when the
// fleet cannot admit the function at all). excl, when non-nil, vetoes
// hosts — the resilience layer excludes hosts already racing an
// attempt of the same invocation; a nil excl reproduces the plain
// routing decision exactly.
func (c *ShardedCluster) chooseVM(fn *workload.Function, excl func(*Node) bool) (string, *Node, *faas.FuncVM) {
	tier := "warm"
	target := c.warmNode(fn, excl)
	if target == nil {
		if cands := c.nodesWithSlack(fn, excl); len(cands) > 0 {
			tier = "scale-up"
			target = c.Policy.Pick(cands, fn)
		} else if el := c.eligible(excl); len(el) > 0 {
			tier = "place"
			target = c.Policy.Pick(el, fn)
		}
	}
	var serving *Node
	var fv *faas.FuncVM
	if target != nil {
		serving, fv = target, c.vmOn(target, fn)
	}
	if fv == nil {
		tier = "fallback"
		serving, fv = c.fallbackVM(fn, excl)
	}
	return tier, serving, fv
}

// eligible returns the placement-eligible hosts under the exclusion
// predicate; with none it is the active list itself (no allocation).
func (c *ShardedCluster) eligible(excl func(*Node) bool) []*Node {
	if excl == nil {
		return c.active
	}
	var out []*Node
	for _, n := range c.active {
		if !excl(n) {
			out = append(out, n)
		}
	}
	return out
}

// warmNode returns the host that should serve fn warm — the one with
// the most idle instances of fn (draining the largest warm pool first),
// ties to the lowest ID — or nil when no host has one. Warm routing is
// policy-independent on purpose: policies compete on cold placement,
// not on rediscovering instance affinity.
func (c *ShardedCluster) warmNode(fn *workload.Function, excl func(*Node) bool) *Node {
	var best *Node
	bestIdle := 0
	for _, n := range c.active {
		if excl != nil && excl(n) {
			continue
		}
		fv := n.vms[fn.Name]
		if fv == nil {
			continue
		}
		if idle := fv.IdleInstances(); idle > bestIdle {
			best, bestIdle = n, idle
		}
	}
	return best
}

// nodesWithSlack returns hosts whose existing VM for fn has spare
// concurrency, in host order. The slice is valid until the next call.
func (c *ShardedCluster) nodesWithSlack(fn *workload.Function, excl func(*Node) bool) []*Node {
	out := c.slack[:0]
	for _, n := range c.active {
		if excl != nil && excl(n) {
			continue
		}
		if fv := n.vms[fn.Name]; fv != nil && fv.LiveInstances() < c.Cfg.N {
			out = append(out, n)
		}
	}
	c.slack = out
	return out
}

// vmOn returns the host's VM for fn, booting one if the host can back
// its boot footprint. It returns nil when the host is too full to boot.
func (c *ShardedCluster) vmOn(n *Node, fn *workload.Function) *faas.FuncVM {
	if fv := n.vms[fn.Name]; fv != nil {
		return fv
	}
	cfg := faas.VMConfig{
		Name:      fmt.Sprintf("%s@h%02d", fn.Name, n.ID),
		Kind:      c.Cfg.Backend,
		Fn:        fn,
		N:         c.Cfg.N,
		KeepAlive: c.Cfg.KeepAlive,
		// Sketch mode is the bounded-memory contract: nothing per-VM
		// may grow with invocation count either, so the per-request
		// completion log and per-function exact samples are skipped.
		LeanMetrics: c.Cfg.Sketch != nil,
	}
	if c.Cfg.Backend == faas.Harvest {
		cfg.HarvestBufferBytes = int64(c.Cfg.HarvestBufferInstances) *
			units.AlignUp(fn.MemoryLimit, units.BlockSize)
	}
	if units.BytesToPages(cfg.BootFootprintBytes()) > n.FreePages() {
		return nil
	}
	fv := n.RT.AddVM(cfg)
	n.vms[fn.Name] = fv
	n.vmOrder = append(n.vmOrder, fv)
	return fv
}

// fallbackVM handles a policy pick that cannot boot fn's VM: queue on
// the least-backlogged host that already runs fn, else boot on the host
// with the most free memory that can. Returns nils when the whole fleet
// is too full.
func (c *ShardedCluster) fallbackVM(fn *workload.Function, excl func(*Node) bool) (*Node, *faas.FuncVM) {
	var existing *faas.FuncVM
	var existingNode *Node
	bestQueue := 0
	for _, n := range c.active {
		if excl != nil && excl(n) {
			continue
		}
		if fv := n.vms[fn.Name]; fv != nil {
			if existing == nil || fv.QueueLen() < bestQueue {
				existing, existingNode, bestQueue = fv, n, fv.QueueLen()
			}
		}
	}
	if existing != nil {
		return existingNode, existing
	}
	var roomiest *Node
	for _, n := range c.active {
		if excl != nil && excl(n) {
			continue
		}
		if roomiest == nil || n.FreePages() > roomiest.FreePages() {
			roomiest = n
		}
	}
	if roomiest == nil {
		return nil, nil
	}
	return roomiest, c.vmOn(roomiest, fn)
}

// finish completes a flight with host-local metrics accounting and
// in-flight retirement, then recycles the record into the serving
// host's pool. It fires on the serving host's scheduler — possibly
// while a shard worker advances that host — so it must only touch that
// host's state (NodeMetrics, inflight, flightFree), never fleet-wide
// state. The recorded latency spans the flight's original arrival, so
// a re-placed invocation pays for the work its failed host lost
// (identical to res.Latency when the flight was never re-placed).
func (fl *flight) finish(res faas.Result) {
	n := fl.node
	n.removeFlight(fl)
	n.account(fl.fn, fl.arrival, fl.replaced, res)
	if fl.onDone != nil {
		fl.onDone(res)
	}
	fl.fn, fl.onDone, fl.node = nil, nil, nil
	n.flightFree = append(n.flightFree, fl)
}

// account records one completed result in the host's metrics. Shared
// by the plain completion wrapper (host-side, host-local by the
// inflight contract) and the resilience layer's boundary-time delivery
// (serial, hosts parked). The recorded latency spans the original
// arrival, so a re-placed or retried invocation pays for the work its
// failed attempts lost.
func (n *Node) account(fn *workload.Function, arrival sim.Time, replaced bool, res faas.Result) {
	m := &n.M
	lat := res.Done.Sub(arrival)
	switch {
	case res.Failed:
		m.Failed++
		if n.Obs != nil {
			n.Obs.Count("failed", 1)
			n.Obs.Instant("done-failed: "+fn.Name, obs.CatFault,
				obs.F("latency_ms", lat.Milliseconds()))
		}
	case res.Dropped:
		m.Dropped++
		if n.Obs != nil {
			n.Obs.Count("dropped", 1)
			n.Obs.Instant("drop: "+fn.Name, obs.CatInvoke)
		}
	case res.Cold:
		m.ColdStarts++
		m.ColdLatMs.Add(lat.Milliseconds())
		m.MemWaitMs.Add(res.Phases.MemWait.Milliseconds())
		if m.ColdPhase != nil {
			m.ColdPhase.Add(res.Done.Seconds(), lat.Milliseconds())
		}
		if n.Obs != nil {
			n.Obs.Count("cold_starts", 1)
			repl := int64(0)
			if replaced {
				repl = 1
			}
			n.Obs.Instant("done-cold: "+fn.Name, obs.CatInvoke,
				obs.F("latency_ms", lat.Milliseconds()),
				obs.F("mem_wait_ms", res.Phases.MemWait.Milliseconds()),
				obs.I("replaced", repl))
		}
	default:
		m.WarmStarts++
		m.WarmLatMs.Add(lat.Milliseconds())
		if n.Obs != nil {
			n.Obs.Count("warm_starts", 1)
			n.Obs.Instant("done-warm: "+fn.Name, obs.CatInvoke,
				obs.F("latency_ms", lat.Milliseconds()))
		}
	}
	if !res.Dropped && !res.Failed && m.LatPhase != nil {
		m.LatPhase.Add(res.Done.Seconds(), lat.Milliseconds())
	}
}

// removeFlight retires the flight from the host's in-flight list,
// preserving order (re-placement order is part of the deterministic
// contract). A flight already snatched away by a failure re-place is
// simply absent — the completion of its doomed first placement never
// fires, because a dead host's scheduler never advances again.
func (n *Node) removeFlight(fl *flight) {
	for i, f := range n.inflight {
		if f == fl {
			n.inflight = append(n.inflight[:i], n.inflight[i+1:]...)
			return
		}
	}
}

// Stats merges the per-host metrics into the fleet-wide Metrics view
// and returns it. Completion counters and latency samples are merged
// in host-ID order; percentiles depend only on the combined multiset,
// so the merged view is identical at every shard count. Call it after
// the run (or after any Drain) — merging while hosts are advancing
// would race the completion callbacks.
func (c *ShardedCluster) Stats() *Metrics {
	m := &c.Metrics
	m.ColdStarts, m.WarmStarts, m.Dropped, m.Failed = 0, 0, 0, 0
	m.ColdLatMs.Reset()
	m.WarmLatMs.Reset()
	m.MemWaitMs.Reset()
	if m.ColdPhase != nil {
		m.ColdPhase.Reset()
		m.LatPhase.Reset()
	}
	for _, n := range c.Nodes {
		m.ColdStarts += n.M.ColdStarts
		m.WarmStarts += n.M.WarmStarts
		m.Dropped += n.M.Dropped
		m.Failed += n.M.Failed
		m.ColdLatMs.Merge(n.M.ColdLatMs)
		m.WarmLatMs.Merge(n.M.WarmLatMs)
		m.MemWaitMs.Merge(n.M.MemWaitMs)
		if m.ColdPhase != nil && n.M.ColdPhase != nil {
			m.ColdPhase.Merge(n.M.ColdPhase)
			m.LatPhase.Merge(n.M.LatPhase)
		}
	}
	return m
}

// SampleMemory appends one fleet-wide committed/populated point (GiB)
// at the dispatcher clock, over the live hosts (a dead host's memory
// no longer exists). Call at an epoch boundary only.
func (c *ShardedCluster) SampleMemory() {
	var committed, populated int64
	for _, n := range c.live {
		committed += n.Host.CommittedPages()
		populated += n.Host.PopulatedPages()
	}
	t := c.now.Seconds()
	committedGiB := float64(units.PagesToBytes(committed)) / float64(units.GiB)
	populatedGiB := float64(units.PagesToBytes(populated)) / float64(units.GiB)
	c.Metrics.Committed.Append(t, committedGiB)
	c.Metrics.Populated.Append(t, populatedGiB)
	if c.fleetObs != nil {
		c.fleetObs.Gauge("mem/committed_gib", obs.CatMemory, committedGiB)
		c.fleetObs.Gauge("mem/populated_gib", obs.CatMemory, populatedGiB)
		if topo := c.Cfg.Topology; topo != nil && topo.Racks > 1 {
			for rack := 0; rack < topo.Racks; rack++ {
				var rc int64
				for _, n := range c.live {
					if n.Rack == rack {
						rc += n.Host.CommittedPages()
					}
				}
				c.fleetObs.Gauge(fmt.Sprintf("mem/rack%d/committed_gib", rack), obs.CatMemory,
					float64(units.PagesToBytes(rc))/float64(units.GiB))
			}
		}
	}
}

// activeCapacityPages sums the placement-eligible hosts' real memory
// capacities. On a uniform fleet this equals len(active) * the per-host
// capacity, but heterogeneous topologies make that product wrong — the
// autoscaler, the shed signal, and the hedge gate all divide by this
// sum. Zero means unlimited (some host has no capacity bound).
func (c *ShardedCluster) activeCapacityPages() int64 {
	var total int64
	for _, n := range c.active {
		cp := n.Host.CapacityPages()
		if cp == 0 {
			return 0
		}
		total += cp
	}
	return total
}

// MemoryEfficiency returns the time-averaged fraction of committed host
// memory the guests actually use (populated/committed over the sampled
// window) — the fleet-scale version of Figure 1's idle-memory gap.
func (c *ShardedCluster) MemoryEfficiency() float64 {
	ci := c.Metrics.Committed.Integral()
	if ci <= 0 {
		return 0
	}
	return c.Metrics.Populated.Integral() / ci
}

// CommittedGiBs returns the fleet's committed-memory time integral
// (GiB·s), the cost metric of Figure 10 at fleet scale.
func (c *ShardedCluster) CommittedGiBs() float64 { return c.Metrics.Committed.Integral() }

// Evictions sums instance evictions across the fleet.
func (c *ShardedCluster) Evictions() int {
	total := 0
	for _, n := range c.Nodes {
		for _, fv := range n.vmOrder {
			total += fv.Evictions
		}
	}
	return total
}

// Fired sums fired events across every host scheduler — the per-host
// analogue of a shared scheduler's Fired count, used by determinism
// tests to pin down the exact event schedule.
func (c *ShardedCluster) Fired() uint64 {
	var total uint64
	for _, n := range c.Nodes {
		total += n.Sched.Fired()
	}
	return total
}

// VMCount returns the number of VMs booted across the fleet.
func (c *ShardedCluster) VMCount() int {
	total := 0
	for _, n := range c.Nodes {
		total += len(n.vmOrder)
	}
	return total
}
