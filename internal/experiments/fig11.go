package experiments

import (
	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// Fig11Row compares the 1:1 and N:1 models for one function: the cold
// start phase breakdown (Figure 11a) and the per-instance host memory
// footprint (Figure 11b).
type Fig11Row struct {
	Fn string

	OneToOne Phases11
	NToOne   Phases11

	Footprint1to1 int64
	FootprintN1   int64
}

// Phases11 is a cold-start breakdown in milliseconds.
type Phases11 struct {
	VMMDelayMs      float64
	ContainerInitMs float64
	FuncInitMs      float64
	ExecMs          float64
}

// TotalMs returns the end-to-end cold start.
func (p Phases11) TotalMs() float64 {
	return p.VMMDelayMs + p.ContainerInitMs + p.FuncInitMs + p.ExecMs
}

func toPhases11(p faas.Phases) Phases11 {
	return Phases11{
		VMMDelayMs:      p.VMMDelay.Milliseconds(),
		ContainerInitMs: p.ContainerInit.Milliseconds(),
		FuncInitMs:      p.FuncInit.Milliseconds(),
		ExecMs:          p.Exec.Milliseconds(),
	}
}

// Fig11Result is the full figure.
type Fig11Result struct {
	Rows []Fig11Row
}

// Fig11Plan reproduces §6.3 / Figure 11: for each Table 1 function,
// cold start a fresh 1:1 microVM and compare against creating a new
// instance on an already running, dynamically resized (Squeezy) N:1 VM
// whose shared dependencies are already cached. The N:1 model skips the
// boot, shares the page cache (faster container/function init), and its
// per-instance footprint excludes the replicated guest OS and
// dependencies.
//
// The plan has two cells per function, one for the 1:1 microVM cold
// start and one for the warmed N:1 VM.
func Fig11Plan(opts Options) *Plan {
	fns := workload.Functions()
	res := &Fig11Result{Rows: make([]Fig11Row, len(fns))}
	p := &Plan{Assemble: func() Result { return res }}
	for i, fn := range fns {
		i, fn := i, fn
		res.Rows[i].Fn = fn.Name
		p.Stage.Cell(fn.Name+"/1to1", func(w *World) {
			// 1:1: fresh microVM per instance.
			sched := w.Scheduler()
			host := hostmem.New(0)
			faas.ColdStart1to1(sched, host, costmodel.Default(), fn, func(ph faas.Phases, fp int64) {
				res.Rows[i].OneToOne = toPhases11(ph)
				res.Rows[i].Footprint1to1 = fp
			})
			sched.Run()
		})
		p.Stage.Cell(fn.Name+"/Nto1", func(w *World) {
			// N:1: warmed Squeezy VM; measure the second instance.
			sched := w.Scheduler()
			rt := w.Runtime(hostmem.New(0), costmodel.Default())
			fv := rt.AddVM(faas.VMConfig{
				Name: fn.Name, Kind: faas.Squeezy, Fn: fn, N: 4,
				KeepAlive: 30 * sim.Second,
			})
			fv.InvokePrimary(nil) // warm the shared page cache
			sched.RunUntil(sim.Time(60 * sim.Second))
			popBefore := fv.VM.PopulatedPages()
			fv.InvokePrimary(func(r faas.Result) {
				res.Rows[i].NToOne = toPhases11(r.Phases)
				res.Rows[i].FootprintN1 = units.PagesToBytes(fv.VM.PopulatedPages() - popBefore)
			})
			sched.RunUntil(sim.Time(120 * sim.Second))
		})
	}
	return p
}

// ColdStartSpeedup returns the geomean of 1:1/N:1 cold start times
// (≈1.6x in the paper).
func (r *Fig11Result) ColdStartSpeedup() float64 {
	var xs []float64
	for _, row := range r.Rows {
		xs = append(xs, row.OneToOne.TotalMs()/row.NToOne.TotalMs())
	}
	return stats.Geomean(xs)
}

// FootprintRatio returns the geomean of 1:1/N:1 footprints (≈2.53x in
// the paper).
func (r *Fig11Result) FootprintRatio() float64 {
	var xs []float64
	for _, row := range r.Rows {
		xs = append(xs, float64(row.Footprint1to1)/float64(row.FootprintN1))
	}
	return stats.Geomean(xs)
}

// Table renders both sub-figures.
func (r *Fig11Result) Table() *Table {
	t := &Table{
		Title: "Figure 11: 1:1 vs N:1 cold start (ms) and footprint (MiB)",
		Header: []string{"function", "model", "vmm", "container", "init", "exec", "total",
			"footprint"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Fn, "1:1",
			f1(row.OneToOne.VMMDelayMs), f1(row.OneToOne.ContainerInitMs),
			f1(row.OneToOne.FuncInitMs), f1(row.OneToOne.ExecMs), f1(row.OneToOne.TotalMs()),
			f1(float64(row.Footprint1to1)/float64(units.MiB)))
		t.AddRow(row.Fn, "N:1",
			f1(row.NToOne.VMMDelayMs), f1(row.NToOne.ContainerInitMs),
			f1(row.NToOne.FuncInitMs), f1(row.NToOne.ExecMs), f1(row.NToOne.TotalMs()),
			f1(float64(row.FootprintN1)/float64(units.MiB)))
	}
	t.AddRow("Geomean", "1:1 / N:1", "", "", "", "", f2(r.ColdStartSpeedup()), f2(r.FootprintRatio()))
	return t
}

func init() {
	RegisterPlan("fig11", "Figure 11: 1:1 vs N:1 cold start (ms) and footprint (MiB)", Fig11Plan)
}
