package experiments

import (
	"fmt"

	"squeezy/internal/cluster"
	"squeezy/internal/faas"
	"squeezy/internal/sim"
	"squeezy/internal/units"
)

// cluster-elastic: the reclaim comparison under fleet churn. A
// pressured fleet plays the Zipf trace while the fleet shape changes
// mid-burst: a host fails at peak (warm pool lost, in-flight work
// re-placed), a host drains at peak (graceful exit under the reclaim
// drain deadline), or an autoscaler grows and shrinks the fleet from
// memory pressure. Latency metrics split at the churn instant, so the
// post-event columns isolate the cold-start storm and tail the event
// causes — the steady-state columns of cluster-policies can't see it.

// elasticChurn is one churn profile of the sweep.
type elasticChurn struct {
	name      string
	events    func(at sim.Time) []cluster.FleetEvent
	autoscale func(hosts int) *cluster.AutoscaleConfig
}

func elasticChurns() []elasticChurn {
	return []elasticChurn{
		{name: "none"},
		{
			// The busiest host dies mid-burst: worst-case warm-pool loss.
			name: "fail-peak",
			events: func(at sim.Time) []cluster.FleetEvent {
				return []cluster.FleetEvent{{T: at, Kind: cluster.HostFail, Host: -1}}
			},
		},
		{
			// The busiest host drains mid-burst: same capacity loss, paid
			// gracefully.
			name: "drain-peak",
			events: func(at sim.Time) []cluster.FleetEvent {
				return []cluster.FleetEvent{{T: at, Kind: cluster.HostDrain, Host: -1}}
			},
		},
		{
			// Memory-pressure autoscaling: scale up into the burst (after
			// a provisioning delay), scale down in the quiet tail.
			name: "autoscale",
			autoscale: func(hosts int) *cluster.AutoscaleConfig {
				return &cluster.AutoscaleConfig{
					High: 0.85, Low: 0.50,
					MinHosts: hosts / 2, MaxHosts: 2 * hosts,
					Cooldown:  20 * sim.Second,
					JoinDelay: 10 * sim.Second,
				}
			},
		},
	}
}

func elasticRow(s fleetStats) []string {
	return []string{
		fmt.Sprintf("%d", s.Joins),
		fmt.Sprintf("%d", s.Fails),
		fmt.Sprintf("%d", s.Drains),
		fmt.Sprintf("%d", s.WarmLost),
		fmt.Sprintf("%d", s.Replaced),
		fmt.Sprintf("%d", s.ColdPre),
		fmt.Sprintf("%d", s.ColdPost),
		f1(s.ColdP99PreMs),
		f1(s.ColdP99PostMs),
		f1(s.LatP99PostMs),
		fmt.Sprintf("%d", s.Dropped),
		fmt.Sprintf("%d", s.Unserved),
	}
}

var elasticCols = []string{
	"joins", "fails", "drains", "warm_lost", "replaced",
	"cold_pre", "cold_post", "cold_p99_pre_ms", "cold_p99_post_ms",
	"lat_p99_post_ms", "dropped", "unserved",
}

// ClusterElasticPlan sweeps policy × backend × churn profile on a
// pressured fleet. The churn instant is mid-trace — inside the bursty
// region — and the phase bound sits at the same time, so cold_post /
// cold_p99_post_ms read the storm the event causes.
func ClusterElasticPlan(opts Options) *Plan {
	funcs, duration, baseRPS, burstRPS := fleetScale(opts)
	hosts, hostMem := 4, int64(28)*units.GiB
	backends := []faas.BackendKind{faas.VirtioMem, faas.Squeezy}
	if opts.Quick {
		hosts, hostMem = 2, 28*units.GiB
		backends = []faas.BackendKind{faas.Squeezy}
	}
	churnAt := sim.Time(duration / 2)

	var cells []fleetCell
	for _, policy := range []string{"headroom", "reclaim-aware"} {
		for _, backend := range backends {
			for _, churn := range elasticChurns() {
				fc := fleetCfg{
					policy: policy, backend: backend, hosts: hosts, hostMem: hostMem,
					funcs: funcs, duration: duration, baseRPS: baseRPS, burstRPS: burstRPS,
					phases: []sim.Time{churnAt},
				}
				if churn.events != nil {
					fc.events = churn.events(churnAt)
				}
				if churn.autoscale != nil {
					fc.autoscale = churn.autoscale(hosts)
				}
				cells = append(cells, fleetCell{
					fc:   fc,
					lead: []string{policy, backend.String(), churn.name},
				})
			}
		}
	}

	return fleetPlan(opts,
		"cluster-elastic: fleet churn at peak (policy x backend x churn profile)",
		append([]string{"policy", "backend", "churn"}, elasticCols...),
		cells, elasticRow)
}

func init() {
	RegisterPlan("cluster-elastic", "fleet churn: failure/drain at peak and autoscaling vs policy x backend", ClusterElasticPlan)
}
