package experiments

import (
	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/trace"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// Fig1Result is Figure 1: guest and host memory usage (GiB) and the
// live-instance count of a statically provisioned 50:1 VM serving a
// bursty trace.
type Fig1Result struct {
	Guest     stats.TimeSeries
	HostUsage stats.TimeSeries
	Instances stats.TimeSeries
}

// Fig1 reproduces Figure 1: a 50:1 VM without memory elasticity serves
// a bursty, real-world-shaped trace. The guest's allocated memory
// follows the load down after keep-alive evictions, but the host's
// populated memory never shrinks — the idle-memory pathology motivating
// the paper.
func Fig1(opts Options) *Fig1Result {
	return Fig1Plan(opts).runSerial(newWorld()).(*Fig1Result)
}

// Fig1Plan is Fig1 as a cell plan: one simulation, one cell.
func Fig1Plan(opts Options) *Plan {
	res := &Fig1Result{}
	p := &Plan{Assemble: func() Result { return res }}
	p.Stage.Cell("fig1", func(w *World) { fig1Run(w, opts, res) })
	return p
}

func fig1Run(w *World, opts Options, res *Fig1Result) {
	duration := 450 * sim.Second
	n := 50
	if opts.Quick {
		duration = 150 * sim.Second
		n = 12
	}
	sched := w.Scheduler()
	host := hostmem.New(0)
	cost := costmodel.Default()
	rt := w.Runtime(host, cost)
	fn := workload.ByName("HTML")
	fv := rt.AddVM(faas.VMConfig{
		Name: "n1-static", Kind: faas.Static, Fn: fn, N: n,
		KeepAlive: 60 * sim.Second,
	})

	// A bursty trace with an early load spike that dies down, so
	// instances are created then evicted within the window.
	src := trace.NewBursty(opts.seed(), trace.BurstyConfig{
		Duration: sim.Duration(duration) * 2 / 5, // load only in the first 40%
		BaseRPS:  0.5,
		BurstRPS: float64(n) * 2,
		BurstLen: 20 * sim.Second,
		BurstGap: 10 * sim.Second,
	})
	for inv, ok := src.Next(); ok; inv, ok = src.Next() {
		sched.At(inv.T, func() { fv.InvokePrimary(nil) })
	}

	points := int(duration/sim.Second) + 1
	res.Guest.Reserve(points)
	res.HostUsage.Reserve(points)
	res.Instances.Reserve(points)
	var tick func()
	tick = func() {
		now := sched.Now().Seconds()
		res.Guest.Append(now, float64(rt.GuestAllocatedBytes())/float64(units.GiB))
		res.HostUsage.Append(now, float64(rt.PopulatedBytes())/float64(units.GiB))
		res.Instances.Append(now, float64(rt.LiveInstances()))
		if sched.Now() < sim.Time(duration) {
			sched.After(sim.Second, tick)
		}
	}
	sched.At(0, tick)
	sched.RunUntil(sim.Time(duration))
}

// Table summarizes the series.
func (r *Fig1Result) Table() *Table {
	t := &Table{
		Title:  "Figure 1: static 50:1 VM — memory usage vs load",
		Header: []string{"series", "peak", "final", "unit"},
	}
	t.AddRow("guest allocated", f2(r.Guest.Max()), f2(last(r.Guest.Values)), "GiB")
	t.AddRow("host populated", f2(r.HostUsage.Max()), f2(last(r.HostUsage.Values)), "GiB")
	t.AddRow("instances", f1(r.Instances.Max()), f1(last(r.Instances.Values)), "count")
	return t
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

func init() {
	RegisterPlan("fig1", "Figure 1: static 50:1 VM — memory usage vs load", Fig1Plan)
}
