package cluster

import (
	"fmt"

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
// sensible defaults (see New).
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
	// dispatch, load shedding (resilience.go). nil is plain dispatch:
	// the same flight and attempt path with nothing armed, each attempt
	// resolving on its host the moment it completes.
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
	// ID and metric index, so sketched runs stay invariant to host
	// advance order, worker count and merge order. nil (the default) retains every
	// observation exactly, preserving the recorded tables bit-for-bit.
	Sketch *stats.SketchConfig
}

// Node is one simulated host: a private scheduler, memory pool, and
// runtime, plus the per-function VMs the dispatcher has placed on it.
// Between dispatcher epochs a node's simulation is fully independent
// of every other node's, which is why the order nodes advance in never
// reaches a result.
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
	// Per-host arenas keep hosts from ever sharing pool state.
	Rec *faas.Recycler
	// M accumulates the host's completion-side metrics. Completion
	// callbacks run while the host advances, in whatever order the
	// epoch engine walks the hosts, so they must write host-local state
	// only; the fleet view is merged from the per-host metrics in
	// host-ID order (Stats).
	M NodeMetrics
	// Obs is the host's trace recorder (nil when tracing is off). Like M
	// it is host-private: written only while this host advances, merged
	// in host-ID order at export.
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
	// attempts is the host's in-flight attempts — placements that have
	// not completed — in launch order. The dispatcher appends at launch
	// (host paused at a boundary); the completion callback removes
	// host-locally. On failure or drain expiry the survivors re-place in
	// this order, exactly once each.
	attempts []*attempt
	// settled parks completed attempts host-locally until the
	// dispatcher resolves them at the next boundary (resilience.go);
	// always empty when resolveOnHost is set.
	settled []*attempt
	// resolveOnHost is set when resilience is off: with no timeout,
	// retry or hedge to race it, an attempt resolves on the host the
	// moment it completes, and its flight goes back to free.
	resolveOnHost bool
	// free holds recycled flight records. Flights retire while the
	// serving host advances, so the pool is per host, never fleet-wide.
	free []*flight
	// inj is the host's fault injector (faults.go); nil when the run has
	// no fault plan.
	inj *fault.Injector
}

// flight is one dispatcher-routed invocation from arrival to
// resolution, under every dispatch mode. It survives host loss:
// re-placement launches another attempt of the same flight, and the
// recorded latency spans the original arrival — lost work is paid,
// not hidden. It resolves exactly once: on its first successful
// attempt, or on its final failure once the retry budget and every
// racer are spent. Plain dispatch is the case with nothing armed (no
// timeout, no retry budget, no hedge), so its flights race one attempt
// at a time.
type flight struct {
	fn      *workload.Function
	arrival sim.Time
	onDone  func(faas.Result)

	launched int  // attempts launched so far (primary, retries, hedge)
	retries  int  // retry budget consumed
	hedged   bool // the one hedge attempt has been launched
	replaced bool // some attempt was re-placed after a host loss
	resolved bool

	// outstanding is the attempts still racing, launch order. Only the
	// serial dispatcher mutates it — or, with resilience off, the host
	// running the flight's only attempt as it completes.
	outstanding []*attempt
	// first backs the flight's first launched attempt, so a plain
	// dispatch takes one record off the free list and recycles it whole.
	first attempt
}

// attempt is one placement of a flight on one host. Between launch and
// completion it is host-owned: the completion callback (running on the
// host's scheduler) removes it from the host's attempts list and
// resolves it there or parks it on settled; everything else is
// dispatcher-owned and mutated only at boundaries.
type attempt struct {
	fl     *flight
	node   *Node
	ticket faas.Ticket
	idx    int // launch index on the flight; 0 is the primary
	hedge  bool

	settled bool // host-written at completion, dispatcher-read at boundaries
	res     faas.Result

	cancelled bool // withdrawn by a first-wins cleanup
	dead      bool // its host failed or drained out underneath it

	// complete is att.done bound once per record, so launching an
	// attempt allocates no closure.
	complete func(faas.Result)
}

// newFlight takes a flight record off the host's free list (or
// allocates one) for an invocation of fn that arrived at arrival. n
// is nil when no host can take the invocation.
func (n *Node) newFlight(fn *workload.Function, arrival sim.Time, onDone func(faas.Result)) *flight {
	var fl *flight
	if n != nil && len(n.free) > 0 {
		k := len(n.free)
		fl = n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
	} else {
		fl = new(flight)
		fl.first.fl = fl
		fl.first.complete = fl.first.done
	}
	fl.fn, fl.arrival, fl.onDone = fn, arrival, onDone
	return fl
}

// newAttempt returns the record for the flight's next attempt: the
// embedded first one, or a fresh record for a retry, hedge or
// re-placement.
func (fl *flight) newAttempt() *attempt {
	if fl.launched == 0 {
		return &fl.first
	}
	att := &attempt{fl: fl}
	att.complete = att.done
	return att
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
// host's identity, so sketched runs are as invariant to host advance
// order and worker count as exact ones. Call with every sample empty: after
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
// identical whatever order the hosts advanced in.
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

// Cluster is a fleet of hosts behind one dispatcher, executed
// as per-host sub-simulations: every host runs on its own scheduler,
// and the epoch engine (epoch.go) advances all hosts in lockstep to
// each dispatcher boundary — an invocation to route or queued
// dispatcher work such as a fleet-wide memory sample (boundary.go) —
// merging the hosts back into one deterministic timeline at every
// boundary.
//
// Hosts interact only through the dispatcher: warm routing, scale-up
// placement, and admission decisions all read host state while every
// host is paused at the boundary time, and all host-side consequences
// (grants, boots, reclaim pressure) play out host-locally between
// boundaries. The dispatcher holds no RNG, iterates hosts in slice
// order, and breaks every tie by host ID, so a fleet run is a pure
// function of its traces and seed — byte-identical whatever order the
// hosts advance in and on any worker pool.
type Cluster struct {
	Cost   *costmodel.Model
	Cfg    Config
	Policy Policy
	// Nodes holds every host that ever existed this run, in host-ID
	// order — dead hosts included, so their metrics still merge. The
	// fleet-dynamics views below narrow it.
	Nodes []*Node

	Metrics Metrics

	now sim.Time // dispatcher clock: the current epoch boundary

	// Fleet-dynamics state (fleetdyn.go). active is the placement-
	// eligible subset of Nodes; live additionally includes draining
	// hosts — everything that still advances. Both stay in host-ID
	// order; with no churn, active == live == Nodes.
	active      []*Node
	live        []*Node
	autoscale   *AutoscaleConfig
	lastScale   sim.Time // autoscaler cooldown anchor
	scaled      bool     // an autoscaler action has happened this run
	joinsQueued int      // HostJoin events waiting in q

	// q holds every piece of timed dispatcher work (boundary.go);
	// tickEvery and tickUntil are the current play's memory-sample
	// cadence.
	q         boundaryQueue
	tickEvery sim.Duration
	tickUntil sim.Time

	// Resilience state (resilience.go): resil is the normalized config
	// (nil = plain dispatch); horizon flips after the final drain so
	// late-settling failures stop scheduling retries.
	resil   *ResilienceConfig
	horizon bool

	// Fault-injection state (faults.go): the plan seed every host
	// injector derives its decision stream from.
	faultSeed uint64
	faultsOn  bool

	// Recovery-storm control (repace.go): repace is the normalized
	// pacing config (nil = immediate re-placement), repaceQ the
	// priority-ordered queue of displaced attempts.
	repace  *RepaceConfig
	repaceQ []*attempt

	// Observability (internal/obs): obsT is the run's trace, fleetObs its
	// fleet-level recorder written only by the serial dispatcher. Both are
	// nil when tracing is off — the common case, which every call site
	// guards so the disabled path costs one nil check.
	obsT     *obs.Trace
	fleetObs *obs.Recorder

	// hostOrder, when non-nil, permutes the live hosts before every
	// epoch advance and the final drain (epoch.go). It is a test hook:
	// the order-invariance suites use it to prove that the order in
	// which hosts advance never reaches a result. Production leaves it
	// nil (host-ID order).
	hostOrder func([]*Node) []*Node

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

// New builds a fleet of cfg.Hosts identical hosts, each on its
// own scheduler with its own recycler, with placement delegated to
// policy.
func New(cost *costmodel.Model, cfg Config, policy Policy) *Cluster {
	c := &Cluster{
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
func (c *Cluster) newNode(id int) *Node {
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

		resolveOnHost: c.Cfg.Resilience == nil,
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
func (c *Cluster) Reset(cost *costmodel.Model, cfg Config, policy Policy) {
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
		clear(n.attempts) // drop stale *attempt pointers
		n.attempts = n.attempts[:0]
		clear(n.settled)
		n.settled = n.settled[:0]
		n.resolveOnHost = c.Cfg.Resilience == nil
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
	c.q.reset()
	c.joinsQueued = 0
	c.resil = c.Cfg.Resilience
	c.horizon = false
	c.faultSeed, c.faultsOn = 0, false
	c.repace = c.Cfg.Repace
	clear(c.repaceQ) // drop stale *attempt pointers
	c.repaceQ = c.repaceQ[:0]
	c.obsT, c.fleetObs = nil, nil
	c.autoscale = nil
	c.lastScale, c.scaled = 0, false
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
func (c *Cluster) Release() {
	for _, n := range c.Nodes {
		n.RT.Release()
	}
}

// Now returns the dispatcher clock: the epoch boundary the fleet last
// advanced to.
func (c *Cluster) Now() sim.Time { return c.now }

// AttachObs enables tracing into t: the fleet track records dispatcher
// decisions on the dispatcher clock, and every host (including ones
// that join later) gets a host track on its private scheduler. Call
// right after New/Reset, before the run; nil detaches. The
// recorders only observe — no call site reads them back — so an
// attached trace provably never perturbs the simulation.
func (c *Cluster) AttachObs(t *obs.Trace) {
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
func (c *Cluster) attachNodeObs(n *Node) {
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
// whole fleet, booting a new VM if needed. Under memory overload a
// shedding mode may drop it at admission instead; with resilience on,
// its hedge timer is armed. onDone may be nil.
//
// Invoke must be called at an epoch boundary: every host paused at the
// dispatcher clock (AdvanceTo/Drain establish this). The routing
// decision reads fleet-wide state; the routed request's consequences
// are host-local events that play out when the hosts advance again.
func (c *Cluster) Invoke(fn *workload.Function, onDone func(faas.Result)) {
	c.Metrics.Invocations++
	if c.fleetObs != nil {
		c.fleetObs.Count("invocations", 1)
	}
	if c.shouldShed(fn) {
		c.shedInvocation(fn, onDone)
		return
	}
	fl := c.launch(nil, fn, onDone)
	if c.resil != nil && c.resil.Hedge && !fl.resolved {
		c.q.push(entry{t: c.now.Add(c.resil.HedgeDelay), class: classResil, resil: hedgeLaunch, fl: fl})
	}
}

// launch places one attempt through the dispatcher tiers, over the
// active hosts only: fl's next attempt (a retry or a re-placement), or,
// with fl nil, the primary attempt of a fresh invocation of fn, whose
// flight record comes off the serving host's free list. It prefers
// hosts not already racing an attempt of the flight. If even the
// unexcluded fleet cannot admit the attempt, it fails at once — a
// retry when the budget allows, else the admission drop. It runs
// serially at an epoch boundary and returns the flight.
func (c *Cluster) launch(fl *flight, fn *workload.Function, onDone func(faas.Result)) *flight {
	excl := exclOf(fl)
	tier, n, fv := c.chooseVM(fn, excl)
	if fv == nil && excl != nil {
		// Better a second attempt on a racing host than none at all.
		tier, n, fv = c.chooseVM(fn, nil)
	}
	if fl == nil {
		fl = n.newFlight(fn, c.now, onDone)
	}
	if fv == nil {
		// With retries armed this is a transient placement failure, not
		// yet an admission drop: only a terminal failure with no
		// admitted attempt counts (finalFail).
		if c.resil != nil && c.fleetObs != nil {
			c.fleetObs.Instant("admission-defer: "+fn.Name, obs.CatInvoke)
		}
		c.attemptFailed(fl, nil, faas.Result{Fn: fn, Arrival: fl.arrival, Done: c.now, Dropped: true})
		return fl
	}
	c.startAttempt(fl, tier, n, fv, false)
	return fl
}

// startAttempt submits one attempt of the flight to the chosen VM and,
// with resilience on, arms its timeout. The completion callback
// (attempt.done) is the only piece of the dispatch path that runs
// host-side.
func (c *Cluster) startAttempt(fl *flight, tier string, n *Node, fv *faas.FuncVM, hedge bool) {
	att := fl.newAttempt()
	att.node, att.idx, att.hedge = n, fl.launched, hedge
	fl.launched++
	fl.outstanding = append(fl.outstanding, att)
	n.attempts = append(n.attempts, att)
	if c.resil != nil {
		c.q.push(entry{t: c.now.Add(c.resil.Timeout), class: classResil, resil: attemptTimeout, fl: fl, att: att})
	}
	if c.fleetObs != nil {
		name := "dispatch/" + tier
		c.fleetObs.Count(name, 1)
		if c.resil == nil {
			c.fleetObs.Instant(name+": "+fl.fn.Name, obs.CatInvoke, obs.I("host", int64(n.ID)))
		} else {
			c.fleetObs.Instant(name+": "+fl.fn.Name, obs.CatInvoke,
				obs.I("host", int64(n.ID)), obs.I("attempt", int64(att.idx)))
		}
	}
	att.ticket = fv.Submit(fl.fn, att.complete)
}

// chooseVM resolves one placement through the dispatcher tiers and
// returns the tier label, the serving host, and its VM (nils when the
// fleet cannot admit the function at all). excl, when non-nil, vetoes
// hosts — the resilience layer excludes hosts already racing an
// attempt of the same invocation; a nil excl reproduces the plain
// routing decision exactly.
func (c *Cluster) chooseVM(fn *workload.Function, excl func(*Node) bool) (string, *Node, *faas.FuncVM) {
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
func (c *Cluster) eligible(excl func(*Node) bool) []*Node {
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
func (c *Cluster) warmNode(fn *workload.Function, excl func(*Node) bool) *Node {
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
func (c *Cluster) nodesWithSlack(fn *workload.Function, excl func(*Node) bool) []*Node {
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
func (c *Cluster) vmOn(n *Node, fn *workload.Function) *faas.FuncVM {
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
func (c *Cluster) fallbackVM(fn *workload.Function, excl func(*Node) bool) (*Node, *faas.FuncVM) {
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

// done is an attempt's completion callback. It fires on the serving
// host's scheduler while that host advances — in whatever order the
// epoch engine walks the hosts — so it touches only that host's state
// and the attempt's own flight, never fleet-wide state. With
// resilience off the attempt is its flight's only racer and resolves
// here at once: accounted on this host, delivered, and the flight
// recycled into this host's free list. With resilience on it parks on
// the host's settled list for the dispatcher to resolve at the next
// boundary.
func (att *attempt) done(res faas.Result) {
	n := att.node
	n.removeAttempt(att)
	if n.resolveOnHost {
		fl := att.fl
		fl.deliver(n, res)
		outstanding, complete := fl.outstanding, fl.first.complete
		*fl = flight{outstanding: outstanding}
		fl.first.fl, fl.first.complete = fl, complete
		n.free = append(n.free, fl)
		return
	}
	att.settled, att.res = true, res
	n.settled = append(n.settled, att)
}

// deliver resolves the flight with res, accounted on host n. The
// recorded latency spans the flight's original arrival, so a re-placed
// or retried invocation pays for the work its lost attempts did
// (identical to res.Latency when the first attempt served it).
func (fl *flight) deliver(n *Node, res faas.Result) {
	fl.resolved = true
	clear(fl.outstanding)
	fl.outstanding = fl.outstanding[:0]
	n.account(fl.fn, fl.arrival, fl.replaced, res)
	if fl.onDone != nil {
		fl.onDone(res)
	}
}

// account records one completed result in the host's metrics, from
// the host-side completion (host-local by the attempts contract) or
// the dispatcher's boundary-time resolution (serial, hosts parked).
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

// removeAttempt retires the attempt from the host's in-flight list,
// preserving order (re-placement order is part of the deterministic
// contract). Called by the completion callback (host-side) or by the
// dispatcher after a successful cancel — never both: a cancelled
// request's completion never fires. An attempt lost with its host is
// simply absent: a dead host's scheduler never advances again.
func (n *Node) removeAttempt(att *attempt) {
	for i, a := range n.attempts {
		if a == att {
			n.attempts = append(n.attempts[:i], n.attempts[i+1:]...)
			return
		}
	}
}

// Stats merges the per-host metrics into the fleet-wide Metrics view
// and returns it. Completion counters and latency samples are merged
// in host-ID order; percentiles depend only on the combined multiset,
// so the merged view is identical whatever order the hosts advanced
// in. Call it after the run (or after any Drain): hosts still owe
// completions before that.
func (c *Cluster) Stats() *Metrics {
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
func (c *Cluster) SampleMemory() {
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
func (c *Cluster) activeCapacityPages() int64 {
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
func (c *Cluster) MemoryEfficiency() float64 {
	ci := c.Metrics.Committed.Integral()
	if ci <= 0 {
		return 0
	}
	return c.Metrics.Populated.Integral() / ci
}

// CommittedGiBs returns the fleet's committed-memory time integral
// (GiB·s), the cost metric of Figure 10 at fleet scale.
func (c *Cluster) CommittedGiBs() float64 { return c.Metrics.Committed.Integral() }

// Evictions sums instance evictions across the fleet.
func (c *Cluster) Evictions() int {
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
func (c *Cluster) Fired() uint64 {
	var total uint64
	for _, n := range c.Nodes {
		total += n.Sched.Fired()
	}
	return total
}

// VMCount returns the number of VMs booted across the fleet.
func (c *Cluster) VMCount() int {
	total := 0
	for _, n := range c.Nodes {
		total += len(n.vmOrder)
	}
	return total
}
