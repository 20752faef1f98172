package experiments

import (
	"fmt"

	"squeezy/internal/cluster"
	"squeezy/internal/faas"
	"squeezy/internal/fault"
	"squeezy/internal/sim"
	"squeezy/internal/units"
)

// cluster-domains: the blast-radius study. The fleet gets a rack/zone
// topology and the fault is no longer one host: a whole rack fails, or
// a zone's racks brown out together. The sweep crosses recovery mode
// (unpaced vs paced re-placement with domain-aware shedding) with
// placement policy (the reclaim-aware baseline vs the blast-radius
// policies) and backend, under three failure shapes of growing radius
// — single host, rack, zone. Phase bounds sit at the failure instant,
// so the *_post columns read the recovery tail on the survivors: how
// much of a function's capacity one domain held, and whether the
// re-placement storm or the reclamation path dominates the recovery.

// domainMode is one recovery configuration of the sweep.
type domainMode struct {
	name   string
	repace *cluster.RepaceConfig
}

func domainModes() []domainMode {
	return []domainMode{
		// Unpaced: every displaced flight re-dispatches at the failure
		// boundary — the recovery storm lands on the survivors at once.
		{name: "unpaced"},
		// Paced: displaced flights drain through the bounded re-placement
		// queue (costmodel.RepacePerTick per tick), and admission sheds
		// low-priority work while the backlog holds pages hostage.
		{name: "paced", repace: &cluster.RepaceConfig{Shed: true}},
	}
}

// domainScenario is one failure shape: either a churn event (single
// host) or a rack-level fault plan.
type domainScenario struct {
	name   string
	events func(at sim.Time) []cluster.FleetEvent
	faults string // fault.Scenario name, "" for churn-only shapes
}

func domainScenarios() []domainScenario {
	return []domainScenario{
		// The PR 6 baseline shape: the busiest single host fails.
		{name: "host-fail", events: func(at sim.Time) []cluster.FleetEvent {
			return []cluster.FleetEvent{{T: at, Kind: cluster.HostFail, Host: -1}}
		}},
		// One rack dies outright: every member fails at the boundary.
		{name: "rack-fail", faults: "rack-fail"},
		// One zone's racks brown out: correlated stragglers, capacity
		// survives but slows.
		{name: "zone-degrade", faults: "zone-degrade"},
	}
}

func domainRow(s fleetStats) []string {
	return []string{
		fmt.Sprintf("%d", s.Cold),
		fmt.Sprintf("%d", s.Fails),
		fmt.Sprintf("%d", s.Replaced),
		fmt.Sprintf("%d", s.Paced),
		fmt.Sprintf("%d", s.WarmLost),
		fmt.Sprintf("%d", s.Dropped),
		fmt.Sprintf("%d", s.Shed),
		f1(s.ColdP99PreMs),
		f1(s.ColdP99PostMs),
		f1(s.LatP99PostMs),
		fmt.Sprintf("%d", s.Unserved),
	}
}

var domainCols = []string{
	"cold", "host_fails", "replaced", "paced", "warm_lost", "dropped", "shed",
	"cold_p99_pre_ms", "cold_p99_post_ms", "lat_p99_post_ms", "unserved",
}

// ClusterDomainsPlan sweeps recovery mode × policy × backend × failure
// shape on a topology-aware fleet. Full scale is 8 hosts in 4 racks
// and 2 zones (16 GiB each — the same 128 GiB the resilience study
// spreads over 4 hosts), so a rack failure removes exactly a quarter
// of the fleet and a zone degrade slows half of it. The failure fires
// at duration/2 with the phase bound on the same instant: the *_pre
// columns are the healthy fleet, the *_post columns are the blast and
// the recovery.
func ClusterDomainsPlan(opts Options) *Plan {
	// The sweep's failure shapes are its own fault plans: -faults does
	// not reach it (and -topology is skipped, every cell has one).
	opts.FaultScenario = ""
	funcs, duration, baseRPS, burstRPS := fleetScale(opts)
	hosts, hostMem := 8, int64(16)*units.GiB
	topo := &cluster.Topology{Racks: 4, Zones: 2}
	policies := append([]string{"reclaim-aware"}, cluster.DomainPolicyNames()...)
	backends := []faas.BackendKind{faas.VirtioMem, faas.Squeezy}
	if opts.Quick {
		hosts = 4
		topo = &cluster.Topology{Racks: 2, Zones: 2}
		policies = []string{"reclaim-aware", "spread"}
		backends = []faas.BackendKind{faas.Squeezy}
	}
	at := sim.Time(duration / 2)

	var cells []fleetCell
	for _, mode := range domainModes() {
		for _, policy := range policies {
			for _, backend := range backends {
				for _, sc := range domainScenarios() {
					fc := fleetCfg{
						policy: policy, backend: backend, hosts: hosts, hostMem: hostMem,
						funcs: funcs, duration: duration, baseRPS: baseRPS, burstRPS: burstRPS,
						phases: []sim.Time{at},
						topo:   topo,
						repace: mode.repace,
					}
					if sc.events != nil {
						fc.events = sc.events(at)
					}
					if sc.faults != "" {
						evs, ok := fault.Scenario(sc.faults, hosts, duration)
						if !ok {
							panic("experiments: unknown fault scenario " + sc.faults)
						}
						fc.faults = evs
						fc.faultSeed = opts.seed()
					}
					cells = append(cells, fleetCell{
						fc:   fc,
						lead: []string{mode.name, policy, backend.String(), sc.name},
					})
				}
			}
		}
	}

	return fleetPlan(opts,
		"cluster-domains: failure domains vs blast-radius-aware placement (mode x policy x backend x failure)",
		append([]string{"recovery", "policy", "backend", "failure"}, domainCols...),
		cells, domainRow)
}

func init() {
	RegisterPlan("cluster-domains", "failure domains: rack/zone faults vs blast-radius-aware placement and paced recovery", ClusterDomainsPlan)
}
