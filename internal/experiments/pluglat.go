package experiments

import (
	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/workload"
)

// PlugLatencyRow is one function's §6.2.1 scale-up measurements.
type PlugLatencyRow struct {
	Fn string
	// PlugMs is the memory plug latency on the Squeezy path (the paper
	// measures 35-45 ms for every function size).
	PlugMs float64
	// StaticColdMs is cold start latency on a statically provisioned
	// (never-resized) N:1 VM.
	StaticColdMs float64
	// ResizedColdMs is cold start latency on a dynamically resized VM;
	// 3-35% slower than static because freshly plugged memory must be
	// nested-faulted into the host.
	ResizedColdMs float64
}

// PlugLatencyResult is the full experiment.
type PlugLatencyResult struct {
	Rows []PlugLatencyRow
}

// PlugLatencyPlan reproduces the §6.2.1 scale-up study.
//
// The plan has two cells per function, one per backend.
func PlugLatencyPlan(opts Options) *Plan {
	fns := workload.Functions()
	res := &PlugLatencyResult{Rows: make([]PlugLatencyRow, len(fns))}
	p := &Plan{Assemble: func() Result { return res }}
	for i, fn := range fns {
		i, fn := i, fn
		res.Rows[i].Fn = fn.Name
		p.Stage.Cell(fn.Name+"/squeezy", func(w *World) {
			res.Rows[i].ResizedColdMs, res.Rows[i].PlugMs = coldStartOn(w, faas.Squeezy, fn)
		})
		p.Stage.Cell(fn.Name+"/static", func(w *World) {
			res.Rows[i].StaticColdMs, _ = coldStartOn(w, faas.Static, fn)
		})
	}
	return p
}

// coldStartOn measures a warmed-VM cold start for one backend,
// returning the total and the plug (VMM) latency in ms.
func coldStartOn(w *World, kind faas.BackendKind, fn *workload.Function) (totalMs, plugMs float64) {
	sched := w.Scheduler()
	rt := w.Runtime(hostmem.New(0), costmodel.Default())
	fv := rt.AddVM(faas.VMConfig{
		Name: fn.Name, Kind: kind, Fn: fn, N: 4, KeepAlive: 20 * sim.Second,
	})
	fv.InvokePrimary(nil) // warm the shared page cache
	sched.RunUntil(sim.Time(40 * sim.Second))
	var phases faas.Phases
	fv.InvokePrimary(func(r faas.Result) { phases = r.Phases })
	sched.RunUntil(sim.Time(80 * sim.Second))
	return phases.Total().Milliseconds(), phases.VMMDelay.Milliseconds()
}

// Table renders the experiment.
func (r *PlugLatencyResult) Table() *Table {
	t := &Table{
		Title:  "§6.2.1: plug latency and the cost of cold-starting on a resized VM",
		Header: []string{"function", "plug(ms)", "static cold(ms)", "resized cold(ms)", "slowdown(%)"},
	}
	for _, row := range r.Rows {
		slow := 100 * (row.ResizedColdMs - row.StaticColdMs) / row.StaticColdMs
		t.AddRow(row.Fn, f1(row.PlugMs), f1(row.StaticColdMs), f1(row.ResizedColdMs), f1(slow))
	}
	return t
}

func init() {
	RegisterPlan("pluglat", "§6.2.1: plug latency and the cost of cold-starting on a resized VM", PlugLatencyPlan)
}
