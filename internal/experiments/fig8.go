package experiments

import (
	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/trace"
	"squeezy/internal/workload"
)

// Fig8Row is one bar of Figure 8: reclamation throughput (MiB/s) for
// one function and method.
type Fig8Row struct {
	Fn             string
	Method         string
	ThroughputMiBs float64
	ReclaimOps     int
}

// Fig8Result is the full figure.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8Plan reproduces §6.2.1 / Figure 8: each Table 1 function runs in
// its own dynamically resized N:1 VM, driven by a bursty Azure-shaped
// trace with abundant host memory. When bursts die down, keep-alive
// evictions trigger unplugs; the figure reports the memory reclamation
// throughput achieved per function, for vanilla virtio-mem vs Squeezy.
//
// The plan has one cell per backend × function combination.
func Fig8Plan(opts Options) *Plan {
	duration := 8 * sim.Minute
	keepAlive := 45 * sim.Second
	if opts.Quick {
		duration = 3 * sim.Minute
		keepAlive = 20 * sim.Second
	}
	kinds := []faas.BackendKind{faas.VirtioMem, faas.Squeezy}
	fns := workload.Functions()
	res := &Fig8Result{Rows: make([]Fig8Row, len(kinds)*len(fns))}
	p := &Plan{Assemble: func() Result { return res }}
	for ki, kind := range kinds {
		for fi, fn := range fns {
			i, kind, fi, fn := ki*len(fns)+fi, kind, fi, fn
			p.Stage.Cell(kind.String()+"/"+fn.Name, func(w *World) {
				res.Rows[i] = fig8Run(w, opts, kind, fi, fn, duration, keepAlive)
			})
		}
	}
	return p
}

func fig8Run(w *World, opts Options, kind faas.BackendKind, fi int, fn *workload.Function,
	duration, keepAlive sim.Duration) Fig8Row {

	// One well-separated stream per function, shared across backends on
	// purpose: both methods replay the identical trace, so the speedup
	// column compares reclamation, not workload luck.
	seed, cfg := SubSeed(opts.seed(), fi), trace.BurstyConfig{
		Duration: sim.Duration(duration) * 3 / 5,
		BaseRPS:  0.2,
		BurstRPS: 4,
		BurstLen: 15 * sim.Second,
		BurstGap: 40 * sim.Second,
	}
	// Size the VM from one pass over the stream; a second, identical
	// pass below replays it.
	n := trace.PeakConcurrency(trace.NewBursty(seed, cfg), fn.ExecCPU+8*sim.Second) + 2

	sched := w.Scheduler()
	rt := w.Runtime(hostmem.New(0), costmodel.Default())
	fv := rt.AddVM(faas.VMConfig{
		Name: fn.Name, Kind: kind, Fn: fn, N: n, KeepAlive: keepAlive,
	})
	src := trace.NewBursty(seed, cfg)
	for inv, ok := src.Next(); ok; inv, ok = src.Next() {
		sched.At(inv.T, func() { fv.InvokePrimary(nil) })
	}
	sched.RunUntil(sim.Time(duration))
	sched.Run() // drain keep-alive evictions and unplugs
	return Fig8Row{
		Fn: fn.Name, Method: kind.String(),
		ThroughputMiBs: fv.ReclaimThroughputMiBs(),
		ReclaimOps:     fv.ReclaimOps,
	}
}

// Throughput returns the measured throughput for a function/method.
func (r *Fig8Result) Throughput(fn, method string) float64 {
	for _, row := range r.Rows {
		if row.Fn == fn && row.Method == method {
			return row.ThroughputMiBs
		}
	}
	return 0
}

// Geomean returns the geometric-mean throughput for a method.
func (r *Fig8Result) Geomean(method string) float64 {
	var xs []float64
	for _, row := range r.Rows {
		if row.Method == method {
			xs = append(xs, row.ThroughputMiBs)
		}
	}
	return stats.Geomean(xs)
}

// Table renders the figure.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title:  "Figure 8: memory reclamation throughput (MiB/s) under FaaS load",
		Header: []string{"function", "virtio-mem", "squeezy", "speedup"},
	}
	for _, fn := range workload.Functions() {
		v := r.Throughput(fn.Name, "virtio-mem")
		s := r.Throughput(fn.Name, "squeezy")
		sp := 0.0
		if v > 0 {
			sp = s / v
		}
		t.AddRow(fn.Name, f1(v), f1(s), f2(sp))
	}
	gv, gs := r.Geomean("virtio-mem"), r.Geomean("squeezy")
	sp := 0.0
	if gv > 0 {
		sp = gs / gv
	}
	t.AddRow("Geomean", f1(gv), f1(gs), f2(sp))
	return t
}

func init() {
	RegisterPlan("fig8", "Figure 8: memory reclamation throughput (MiB/s) under FaaS load", Fig8Plan)
}
