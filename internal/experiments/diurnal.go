package experiments

import (
	"fmt"

	"squeezy/internal/faas"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/trace"
	"squeezy/internal/units"
)

// cluster-diurnal: the ROADMAP's "days of diurnal traffic" scenario.
// A fleet replays multiple simulated days of Zipf traffic whose rate
// swings with a 24 h diurnal cycle plus a weekly envelope — over a
// million invocations in the full protocol — streamed straight from
// the generator cursors through the epoch loop with reservoir sketches
// collecting the latency tails. Nothing in the run grows with
// invocation count: the trace is never materialized, and the sketches
// hold a fixed K values per sample. The memory-bound regression test
// (memory_test.go) asserts exactly that property; this sweep is the
// measured table it protects.

// diurnalDays returns the simulated length in days: the -days override
// when set, else the protocol default.
func diurnalDays(opts Options) float64 {
	if opts.Days > 0 {
		return opts.Days
	}
	if opts.Quick {
		return 0.01 // ~14 simulated minutes: a smoke-sized slice
	}
	return 2
}

// diurnalCfg builds the shared fleet shape of the sweep: a fleet sized
// so the diurnal peaks push into reclamation while the troughs idle,
// with the trace modulated by a 24 h cycle and a weekly envelope. In
// quick mode the cycle periods shrink with the trace so the smoke run
// still sees peaks and troughs.
func diurnalCfg(opts Options, backend faas.BackendKind) fleetCfg {
	days := diurnalDays(opts)
	duration := sim.Duration(days * 24 * float64(sim.Hour))
	fc := fleetCfg{
		policy: "reclaim-aware", backend: backend,
		hosts: 4, hostMem: 32 * units.GiB,
		funcs: 48, duration: duration,
		baseRPS: 4, burstRPS: 12,
		// Coarsen the memory-series cadence so its length tracks
		// simulated days (~5.8k points/day), not invocations.
		tick: 30 * sim.Second,
		mods: []trace.DiurnalConfig{
			{Period: 24 * sim.Hour, Amplitude: 0.6},
			{Period: 7 * 24 * sim.Hour, Amplitude: 0.2, Phase: 1.0},
		},
		sketch: &stats.SketchConfig{K: stats.DefaultSketchK, Seed: opts.seed()},
	}
	if opts.Quick {
		fc.hosts, fc.funcs = 2, 12
		fc.baseRPS, fc.burstRPS = 2, 6
		fc.tick = 10 * sim.Second
		fc.mods = []trace.DiurnalConfig{
			{Period: duration / 3, Amplitude: 0.6},
			{Period: duration, Amplitude: 0.2, Phase: 1.0},
		}
	}
	return fc
}

// ClusterDiurnalPlan replays the multi-day diurnal fleet per backend.
// Sketches are on by default here — the point of the experiment is the
// bounded-memory pipeline — so its table is rank-error-accurate rather
// than byte-exact; every other experiment keeps exact statistics.
func ClusterDiurnalPlan(opts Options) *Plan {
	days := diurnalDays(opts)
	backends := []faas.BackendKind{faas.VirtioMem, faas.Squeezy}
	if opts.Quick {
		backends = []faas.BackendKind{faas.Squeezy}
	}

	var cells []fleetCell
	for _, backend := range backends {
		cells = append(cells, fleetCell{
			fc:   diurnalCfg(opts, backend),
			lead: []string{backend.String(), fmt.Sprintf("%.2f", days)},
		})
	}
	return fleetPlan(opts,
		"cluster-diurnal: multi-day diurnal traffic, streamed with reservoir sketches",
		[]string{
			"backend", "days", "invocations", "cold", "warm",
			"cold_p50_ms", "cold_p99_ms", "cold_p999_ms", "warm_p99_ms",
			"memwait_p99_ms", "dropped", "unserved", "mem_eff", "GiB*s",
		},
		cells, diurnalRow)
}

func diurnalRow(s fleetStats) []string {
	return []string{
		fmt.Sprintf("%d", s.Invoked),
		fmt.Sprintf("%d", s.Cold),
		fmt.Sprintf("%d", s.Warm),
		f1(s.ColdP50Ms),
		f1(s.ColdP99Ms),
		f1(s.ColdP999Ms),
		f1(s.WarmP99Ms),
		f1(s.MemWaitP99),
		fmt.Sprintf("%d", s.Dropped),
		fmt.Sprintf("%d", s.Unserved),
		f2(s.MemEff),
		f1(s.GiBs),
	}
}

func init() {
	RegisterPlan("cluster-diurnal", "multi-day diurnal fleet: streamed traces + reservoir sketches (bounded memory)", ClusterDiurnalPlan)
}
