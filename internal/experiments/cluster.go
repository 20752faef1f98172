package experiments

import (
	"fmt"
	"strings"

	"squeezy/internal/cluster"
	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/fault"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/trace"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// The cluster-* experiments take the paper's single-host reclamation
// comparison to fleet scale: N simulated hosts under one scheduler, a
// Zipf fleet of functions replayed through the dispatcher, and the
// placement policy deciding which host pays plug — and, under
// pressure, unplug — latency.

// fleetCfg parameterizes one fleet run.
type fleetCfg struct {
	policy   string
	backend  faas.BackendKind
	hosts    int
	hostMem  int64
	funcs    int
	duration sim.Duration
	baseRPS  float64 // fleet-aggregate quiet rate
	burstRPS float64 // fleet-aggregate in-burst rate

	// Fleet dynamics (cluster-elastic): a churn schedule, an optional
	// autoscaler, and phase bounds that split latency metrics at the
	// churn instant. All nil/empty for the static experiments.
	events    []cluster.FleetEvent
	autoscale *cluster.AutoscaleConfig
	phases    []sim.Time

	// Fault injection and resilience (cluster-resilience and
	// cluster-domains, or the other fleet experiments under squeezyctl
	// -faults): a fault plan with its decision-stream seed, and the
	// dispatcher resilience config (nil = plain dispatch). All zero for
	// the fault-free experiments.
	faults    []fault.Event
	faultSeed uint64
	resil     *cluster.ResilienceConfig

	// Failure domains (cluster-domains, or the other fleet experiments
	// under squeezyctl -topology): the rack/zone topology and the
	// recovery pacing config. Both nil for the flat-fleet experiments,
	// which keeps their tables byte-identical to builds without the
	// domain machinery.
	topo   *cluster.Topology
	repace *cluster.RepaceConfig

	// Diurnal/weekly rate modulation on the fleet trace
	// (cluster-diurnal). Empty for the flat-rate experiments, which
	// keeps their traces byte-identical to the unmodulated generators.
	mods []trace.DiurnalConfig
	// tick overrides the fleet memory-sampling cadence; 0 keeps the
	// default 1 s. Multi-day runs coarsen it so the memory series stays
	// proportional to simulated days, not invocations.
	tick sim.Duration
	// sketch, when non-nil, moves the fleet's latency samples into
	// bounded-memory reservoir mode (stats.SketchConfig). Nil — the
	// default everywhere but cluster-diurnal and squeezyctl -sketch —
	// keeps exact percentiles and byte-identical recorded tables.
	sketch *stats.SketchConfig
}

// overlay applies the CLI's fleet overlays (squeezyctl -topology,
// -faults, -sketch) to one cell config; fleetPlan calls it on every
// cell. Each overlay fills only a field the cell left nil, so a sweep
// that configures its own topology, fault plan or sketch keeps it. The
// topology goes first so fuzzed fault plans know the racks. A fault
// plan adds a phase bound at the trace midpoint when the cell has
// none, so the post-fault tail is readable even in the static
// experiments. Sketched order statistics may differ from exact ones
// within the documented rank-error bound; the byte-identity contract
// holds only with sketches off.
func overlay(opts Options, fc *fleetCfg) {
	if fc.topo == nil && opts.TopoRacks > 1 {
		fc.topo = &cluster.Topology{Racks: opts.TopoRacks, Zones: max(opts.TopoZones, 1)}
	}
	if name := opts.FaultScenario; fc.faults == nil && name != "" && name != "none" {
		seed := opts.FaultSeed
		if seed == 0 {
			seed = opts.seed()
		}
		if name == "fuzz" {
			racks := 0
			if fc.topo != nil {
				racks = fc.topo.Racks
			}
			fc.faults = fault.GenFaults(seed, fault.Config{
				Duration: fc.duration, Events: 12, Hosts: fc.hosts, Racks: racks,
			})
		} else {
			evs, ok := fault.Scenario(name, fc.hosts, fc.duration)
			if !ok {
				panic("experiments: unknown fault scenario " + name)
			}
			fc.faults = evs
		}
		fc.faultSeed = seed
		if len(fc.phases) == 0 {
			fc.phases = []sim.Time{sim.Time(fc.duration / 2)}
		}
	}
	if fc.sketch == nil && opts.Sketch {
		fc.sketch = &stats.SketchConfig{K: stats.DefaultSketchK, Seed: opts.seed()}
	}
}

// fleetStats is the measured outcome of one fleet run.
type fleetStats struct {
	VMs        int
	Invoked    int
	Cold       int
	Warm       int
	ColdP50Ms  float64
	ColdP99Ms  float64
	ColdP999Ms float64
	WarmP99Ms  float64
	MemWaitP99 float64
	Evictions  int
	Dropped    int // execution drops + admission drops
	Unserved   int // still queued at the drain horizon (unbounded tail)
	MemEff     float64
	GiBs       float64

	// Fleet-dynamics outcomes, populated when the run configures churn
	// or phase bounds (zero otherwise). Pre/post split at the first
	// phase bound — the churn instant.
	Joins, Fails, Drains int
	Replaced, WarmLost   int
	ColdPre, ColdPost    int
	ColdP99PreMs         float64
	ColdP99PostMs        float64
	LatP99PostMs         float64

	// Resilience and fault outcomes (cluster-resilience), zero in the
	// fault-free plain-dispatch experiments.
	Failed    int // injected failures delivered as error results
	Shed      int // invocations shed at admission under pressure
	Retries   int
	Hedges    int
	HedgeWins int
	TimedOut  int

	// Failure-domain outcomes (cluster-domains), zero on flat fleets.
	Paced      int // re-placements routed through the pacing queue
	RackEvents int // rack-level fault windows expanded onto hosts
}

// fleetRun replays a Zipf fleet trace against a cluster and
// collects fleet-wide latency, churn, and memory-efficiency metrics.
// The trace streams straight from the generator cursors into the epoch
// loop, never materialized; function ranks resolve through a lazy
// fleet pool as they are dispatched. The run is a pure function of
// (seed, fc) — the pooled world only contributes recycled storage, and
// the order in which the epoch engine advances hosts never reaches the
// results (the cluster package's determinism contract).
func fleetRun(w *World, seed uint64, fc fleetCfg) fleetStats {
	cost := costmodel.Default()
	c := w.Fleet(cost, cluster.Config{
		Hosts:        fc.hosts,
		HostMemBytes: fc.hostMem,
		Backend:      fc.backend,
		N:            8,
		KeepAlive:    45 * sim.Second,
		PhaseBounds:  fc.phases,
		Resilience:   fc.resil,
		Topology:     fc.topo,
		Repace:       fc.repace,
		Sketch:       fc.sketch,
	}, cluster.NewPolicy(fc.policy, cost))

	src := trace.NewFleetStream(seed, trace.FleetConfig{
		Funcs:         fc.funcs,
		Duration:      fc.duration,
		TotalBaseRPS:  fc.baseRPS,
		TotalBurstRPS: fc.burstRPS,
		Modulation:    fc.mods,
	})
	var pool workload.FleetPool
	tick := fc.tick
	if tick == 0 {
		tick = sim.Second
	}
	// Drain far past the trace end (10x the trace) so slow requests
	// finish and their latencies are counted — in the pressured regimes
	// the tail outlives the trace by minutes, and a short cutoff would
	// deflate exactly the numbers these experiments compare. Requests
	// still unfinished at the horizon are reported as `unserved`
	// instead of being silently censored: a nonzero count means the
	// configuration cannot work off its backlog at all (its true tail
	// is unbounded, not merely long). The memory series still covers
	// only the trace window.
	c.Play(src, pool.Get, cluster.PlayConfig{
		TickEvery:  tick,
		TickUntil:  sim.Time(fc.duration),
		DrainUntil: sim.Time(10 * fc.duration),
		Events:     fc.events,
		Autoscale:  fc.autoscale,
		Faults:     fc.faults,
		FaultSeed:  fc.faultSeed,
	})

	m := c.Stats()
	served := m.ColdStarts + m.WarmStarts + m.Dropped + m.AdmissionDrops + m.Failed + m.Shed
	fs := fleetStats{
		VMs:        c.VMCount(),
		Invoked:    m.Invocations,
		Cold:       m.ColdStarts,
		Warm:       m.WarmStarts,
		ColdP50Ms:  m.ColdLatMs.P50(),
		ColdP99Ms:  m.ColdLatMs.P99(),
		ColdP999Ms: m.ColdLatMs.Percentile(99.9),
		WarmP99Ms:  m.WarmLatMs.P99(),
		MemWaitP99: m.MemWaitMs.P99(),
		Evictions:  c.Evictions(),
		Dropped:    m.Dropped + m.AdmissionDrops,
		Unserved:   m.Invocations - served,
		MemEff:     c.MemoryEfficiency(),
		GiBs:       c.CommittedGiBs(),
		Joins:      m.HostJoins,
		Fails:      m.HostFails,
		Drains:     m.HostDrains,
		Replaced:   m.Replaced,
		WarmLost:   m.WarmLost,
		Failed:     m.Failed,
		Shed:       m.Shed,
		Retries:    m.Retries,
		Hedges:     m.Hedges,
		HedgeWins:  m.HedgeWins,
		TimedOut:   m.TimedOut,
		Paced:      m.Paced,
		RackEvents: m.RackEvents,
	}
	if m.ColdPhase != nil && m.ColdPhase.Phases() >= 2 {
		pre, post := m.ColdPhase.Phase(0), m.ColdPhase.Phase(1)
		fs.ColdPre, fs.ColdPost = pre.N(), post.N()
		fs.ColdP99PreMs, fs.ColdP99PostMs = pre.P99(), post.P99()
		fs.LatP99PostMs = m.LatPhase.Phase(1).P99()
	}
	return fs
}

// fleetScale returns the shared workload scale: quick shrinks the
// fleet and trace for smoke runs.
func fleetScale(opts Options) (funcs int, duration sim.Duration, baseRPS, burstRPS float64) {
	if opts.Quick {
		return 16, 60 * sim.Second, 6, 36
	}
	// 40 functions at these rates saturate ~4 x 32 GiB hosts into the
	// pressured-but-functional regime; well past that (half the memory,
	// or double the load) the fleet collapses into pure queueing and
	// every policy and backend looks identically bad.
	return 40, 180 * sim.Second, 16, 80
}

// fleetRow formats the shared fleet columns (fleetCols).
func fleetRow(s fleetStats) []string {
	return []string{
		fmt.Sprintf("%d", s.VMs),
		fmt.Sprintf("%d", s.Cold),
		fmt.Sprintf("%d", s.Warm),
		f1(s.ColdP50Ms),
		f1(s.ColdP99Ms),
		f1(s.MemWaitP99),
		fmt.Sprintf("%d", s.Evictions),
		fmt.Sprintf("%d", s.Dropped),
		fmt.Sprintf("%d", s.Unserved),
		f2(s.MemEff),
		f1(s.GiBs),
	}
}

var fleetCols = []string{"vms", "cold", "warm", "cold_p50_ms", "cold_p99_ms", "memwait_p99_ms", "evictions", "dropped", "unserved", "mem_eff", "GiB*s"}

// fleetCell is one (config, lead-columns) pair of a fleet sweep.
type fleetCell struct {
	fc   fleetCfg
	lead []string
}

// fleetPlan builds every fleet sweep's cell plan: one cell per
// configuration, each overlaid with the CLI options (overlay),
// simulating its fleet on the pooled world and writing its own result
// slot. Assemble emits one row per cell in enumeration order — the
// cell's lead columns, then row of its outcome — so the table is
// identical at any worker count.
func fleetPlan(opts Options, title string, header []string, cells []fleetCell, row func(fleetStats) []string) *Plan {
	seed := opts.seed()
	results := make([]fleetStats, len(cells))
	p := &Plan{Assemble: func() Result {
		t := &Table{Title: title, Header: header}
		for i, c := range cells {
			t.AddRow(append(append([]string{}, c.lead...), row(results[i])...)...)
		}
		return t
	}}
	for i := range cells {
		overlay(opts, &cells[i].fc)
		c := cells[i]
		p.Stage.Cell(strings.Join(c.lead, "/"), func(w *World) {
			results[i] = fleetRun(w, seed, c.fc)
		})
	}
	return p
}

// ClusterPoliciesPlan sweeps placement policy × backend × host count
// under a fixed fleet workload: with few hosts the fleet is
// memory-tight and placement decides who stalls on reclamation; with
// more hosts the pressure relaxes and the policies converge.
func ClusterPoliciesPlan(opts Options) *Plan {
	funcs, duration, baseRPS, burstRPS := fleetScale(opts)
	hostCounts := []int{4, 8}
	hostMem := int64(32) * units.GiB
	if opts.Quick {
		hostCounts = []int{2, 3}
		hostMem = 28 * units.GiB
	}
	var cells []fleetCell
	for _, hosts := range hostCounts {
		for _, backend := range []faas.BackendKind{faas.VirtioMem, faas.Squeezy} {
			for _, policy := range cluster.PolicyNames() {
				cells = append(cells, fleetCell{
					fc: fleetCfg{
						policy: policy, backend: backend, hosts: hosts, hostMem: hostMem,
						funcs: funcs, duration: duration, baseRPS: baseRPS, burstRPS: burstRPS,
					},
					lead: []string{policy, backend.String(), fmt.Sprintf("%d", hosts)},
				})
			}
		}
	}
	return fleetPlan(opts,
		"cluster-policies: placement policy x backend x host count under a Zipf fleet",
		append([]string{"policy", "backend", "hosts"}, fleetCols...),
		cells, fleetRow)
}

// ClusterScalePlan grows hosts and load together (weak scaling) under
// the reclaim-aware policy on Squeezy hosts: per-request latency
// should stay flat while the fleet absorbs proportionally more
// traffic.
func ClusterScalePlan(opts Options) *Plan {
	hostCounts := []int{2, 4, 8, 16}
	perHostFuncs, perHostBase, perHostBurst := 10, 4.0, 20.0
	duration := 180 * sim.Second
	if opts.Quick {
		hostCounts = []int{2, 4}
		perHostFuncs, perHostBase, perHostBurst = 8, 3, 15
		duration = 60 * sim.Second
	}
	var cells []fleetCell
	for _, hosts := range hostCounts {
		funcs := perHostFuncs * hosts
		cells = append(cells, fleetCell{
			fc: fleetCfg{
				policy: "reclaim-aware", backend: faas.Squeezy,
				hosts: hosts, hostMem: 32 * units.GiB,
				funcs: funcs, duration: duration,
				baseRPS: perHostBase * float64(hosts), burstRPS: perHostBurst * float64(hosts),
			},
			lead: []string{fmt.Sprintf("%d", hosts), fmt.Sprintf("%d", funcs)},
		})
	}
	return fleetPlan(opts,
		"cluster-scale: weak scaling of the fleet (reclaim-aware, squeezy)",
		append([]string{"hosts", "funcs", "invocations"}, fleetCols...),
		cells,
		// The invocations column comes from the run itself.
		func(s fleetStats) []string { return append([]string{fmt.Sprintf("%d", s.Invoked)}, fleetRow(s)...) })
}

// ClusterOvercommitPlan fixes the fleet and shrinks per-host memory:
// as overcommit tightens, every scale-up depends on reclaiming another
// function's memory, and the backend's unplug latency becomes the
// fleet's cold-start tail.
func ClusterOvercommitPlan(opts Options) *Plan {
	funcs, duration, baseRPS, burstRPS := fleetScale(opts)
	hosts := 4
	memSteps := []int64{32, 28, 24}
	if opts.Quick {
		hosts = 2
		memSteps = []int64{28, 24, 20}
	}
	var cells []fleetCell
	for _, backend := range []faas.BackendKind{faas.VirtioMem, faas.Harvest, faas.Squeezy} {
		for _, gib := range memSteps {
			cells = append(cells, fleetCell{
				fc: fleetCfg{
					policy: "reclaim-aware", backend: backend, hosts: hosts, hostMem: gib * units.GiB,
					funcs: funcs, duration: duration, baseRPS: baseRPS, burstRPS: burstRPS,
				},
				lead: []string{backend.String(), fmt.Sprintf("%d", gib)},
			})
		}
	}
	return fleetPlan(opts,
		"cluster-overcommit: tightening per-host memory (reclaim-aware placement)",
		append([]string{"backend", "host_mem_gib"}, fleetCols...),
		cells, fleetRow)
}

func init() {
	RegisterPlan("cluster-policies", "fleet placement: policy x backend x host count over a Zipf fleet", ClusterPoliciesPlan)
	RegisterPlan("cluster-scale", "fleet weak scaling: hosts and load grow together (reclaim-aware, squeezy)", ClusterScalePlan)
	RegisterPlan("cluster-overcommit", "fleet overcommit: per-host memory shrinks, backends pay the unplug tail", ClusterOvercommitPlan)
}
