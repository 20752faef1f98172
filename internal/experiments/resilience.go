package experiments

import (
	"fmt"

	"squeezy/internal/cluster"
	"squeezy/internal/faas"
	"squeezy/internal/fault"
	"squeezy/internal/sim"
	"squeezy/internal/units"
)

// cluster-resilience: the fault-injection study. A pressured fleet
// plays the Zipf trace while a named fault scenario degrades it
// mid-burst — reclaim commands stalling and completing half-strength,
// cold boots failing and executions crashing, or one host browning
// out to 30x slow — and the dispatcher either runs the plain path (faults land on
// callers unmitigated) or the resilience layer (per-attempt timeouts,
// capped-backoff retries, hedged dispatch, priority shedding). Phase
// bounds sit at the fault-window start, so the post columns read the
// tail the faults cause and how much of it each mitigation buys back.

// resilMode is one dispatcher configuration of the sweep.
type resilMode struct {
	name  string
	resil *cluster.ResilienceConfig
}

func resilModes() []resilMode {
	return []resilMode{
		// Plain dispatch: every injected failure reaches the caller.
		{name: "none"},
		// Timeouts + capped-backoff retries. No shedding, so the row
		// serves the same admitted workload as mode=none and the latency
		// columns compare directly.
		{name: "retry", resil: &cluster.ResilienceConfig{}},
		// Retries plus hedged dispatch with first-wins cancellation.
		{name: "retry+hedge", resil: &cluster.ResilienceConfig{Hedge: true}},
		// The full layer, adding priority load shedding — the one mode
		// that changes the admitted workload, so its columns read as a
		// tradeoff (shed_pct bought the rest) rather than a like-for-like
		// latency comparison.
		{name: "retry+hedge+shed", resil: &cluster.ResilienceConfig{Hedge: true, Shed: true}},
	}
}

func resilienceRow(s fleetStats) []string {
	pct := func(n int) string {
		if s.Invoked == 0 {
			return f1(0)
		}
		return f1(100 * float64(n) / float64(s.Invoked))
	}
	return []string{
		fmt.Sprintf("%d", s.Cold),
		fmt.Sprintf("%d", s.Failed),
		fmt.Sprintf("%d", s.Dropped),
		fmt.Sprintf("%d", s.Shed),
		pct(s.Dropped + s.Failed),
		pct(s.Shed),
		fmt.Sprintf("%d", s.TimedOut),
		fmt.Sprintf("%d", s.Retries),
		fmt.Sprintf("%d", s.Hedges),
		fmt.Sprintf("%d", s.HedgeWins),
		f1(s.ColdP99PreMs),
		f1(s.ColdP99PostMs),
		f1(s.LatP99PostMs),
		fmt.Sprintf("%d", s.Unserved),
	}
}

var resilienceCols = []string{
	"cold", "failed", "dropped", "shed", "fail_pct", "shed_pct",
	"timeouts", "retries", "hedges", "hedge_wins",
	"cold_p99_pre_ms", "cold_p99_post_ms", "lat_p99_post_ms", "unserved",
}

// ClusterResiliencePlan sweeps resilience mode × backend × fault
// scenario on a pressured fleet. Every scenario opens its windows over
// the third quarter of the trace ([duration/2, 3·duration/4)), and the
// phase bound sits at the window start, so the *_post columns compare
// the fault-era tail across mitigation levels — mode=none is the
// unmitigated baseline the retry and hedge rows are read against.
func ClusterResiliencePlan(opts Options) *Plan {
	// The sweep's fault scenarios are its own fault plans: -faults does
	// not reach it.
	opts.FaultScenario = ""
	funcs, duration, baseRPS, burstRPS := fleetScale(opts)
	// 32 GiB hosts, not cluster-elastic's 28: the fault study needs a
	// fleet whose healthy tails are congestion-light, so the *_post
	// columns measure what the injected faults cause and what the
	// mitigations buy back — in the overcommitted regime the backlog
	// dominates every tail and no dispatcher policy can conjure the
	// missing capacity.
	hosts, hostMem := 4, int64(32)*units.GiB
	backends := []faas.BackendKind{faas.VirtioMem, faas.Squeezy}
	if opts.Quick {
		hosts = 2
		backends = []faas.BackendKind{faas.Squeezy}
	}

	var cells []fleetCell
	for _, mode := range resilModes() {
		for _, backend := range backends {
			for _, scenario := range fault.ScenarioNames() {
				evs, ok := fault.Scenario(scenario, hosts, duration)
				if !ok {
					panic("experiments: unknown fault scenario " + scenario)
				}
				fc := fleetCfg{
					policy: "reclaim-aware", backend: backend, hosts: hosts, hostMem: hostMem,
					funcs: funcs, duration: duration, baseRPS: baseRPS, burstRPS: burstRPS,
					phases:    []sim.Time{sim.Time(duration / 2)},
					faults:    evs,
					faultSeed: opts.seed(),
					resil:     mode.resil,
				}
				cells = append(cells, fleetCell{
					fc:   fc,
					lead: []string{mode.name, backend.String(), scenario},
				})
			}
		}
	}

	return fleetPlan(opts,
		"cluster-resilience: fault scenarios vs dispatcher mitigation (mode x backend x fault)",
		append([]string{"resilience", "backend", "fault"}, resilienceCols...),
		cells, resilienceRow)
}

func init() {
	RegisterPlan("cluster-resilience", "fault injection: reclaim degradation, crashes, stragglers vs retries/hedging/shedding", ClusterResiliencePlan)
}
