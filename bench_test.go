package squeezy_test

import (
	"runtime"
	"testing"

	"squeezy/internal/experiments"
)

// The figure benchmarks go through the experiment registry: every
// registered driver gets a sub-benchmark that regenerates its table,
// the ablations (abl-*) included, each sweeping its configurations.
// Use -short for the reduced (Quick) protocols. Headline quantities
// per figure live in EXPERIMENTS.md and in the drivers' JSON output
// (`squeezyctl -format json all`).

// BenchmarkExperiments regenerates each registered experiment's table
// and reports its row count, so a driver that silently stops
// producing output shows up as a metric change.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		e := e
		b.Run(e.Name(), func(b *testing.B) {
			o := experiments.Options{Seed: 1, Quick: testing.Short()}
			for i := 0; i < b.N; i++ {
				tab := e.Run(o).Table()
				if tab == nil || len(tab.Rows) == 0 {
					b.Fatalf("%s produced an empty table", e.Name())
				}
				b.ReportMetric(float64(len(tab.Rows)), "rows")
			}
		})
	}
}

// BenchmarkRunnerParallel measures the worker-pool runner end to end:
// every registered experiment in Quick mode across GOMAXPROCS
// workers. Compare with -cpu 1 to see the fan-out win.
func BenchmarkRunnerParallel(b *testing.B) {
	names := experiments.Names()
	for i := 0; i < b.N; i++ {
		reports, err := experiments.Run(names, experiments.Options{Seed: 1, Quick: true}, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(reports)), "experiments")
	}
}

// BenchmarkStreamBytesPerInvocation tracks the streaming replay's
// memory economy on the cluster-diurnal cell shape: cumulative
// allocation per invocation (churn the collector absorbs) and peak
// live heap per invocation (what actually stays resident — the figure
// that must not scale with trace length). Regressions here are caught
// hard by TestStreamingMemoryBounded; the metrics make drift visible
// before it trips that gate.
func BenchmarkStreamBytesPerInvocation(b *testing.B) {
	days := 0.25
	if testing.Short() {
		days = 0.02
	}
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, peak := experiments.StreamMemProbe(days, 1)
		runtime.ReadMemStats(&after)
		if n == 0 {
			b.Fatal("degenerate streaming cell: no invocations")
		}
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(n), "alloc-B/inv")
		b.ReportMetric(float64(peak)/float64(n), "live-B/inv")
	}
}
