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

// Fig10Run is one end-to-end run of the restricted-memory experiment.
type Fig10Run struct {
	Method string
	// P99Ms is the per-function P99 latency in milliseconds.
	P99Ms map[string]float64
	// Committed is the host committed-memory time series (GiB).
	Committed stats.TimeSeries
	// GiBs is the time integral of committed memory (GiB·s).
	GiBs float64
	// PeakCommittedBytes is the run's peak committed memory.
	PeakCommittedBytes int64
	// Dropped counts requests that failed outright.
	Dropped int
}

// Fig10Result is the full figure: the Abundant Memory baselines plus
// the three methods under a restricted host. Each method normalizes
// against its own abundant run, as the paper does — otherwise backend
// perks unrelated to the restriction (HarvestVM's instant buffer
// scale-ups, say) leak into the normalized ratios.
type Fig10Result struct {
	Abundant  Fig10Run
	Baselines map[string]Fig10Run
	Runs      []Fig10Run
}

// Fig10Plan reproduces §6.2.2 / Figure 10. Four N:1 VMs (one per Table
// 1 function) serve staggered bursts sized so that scale-ups must reuse
// memory reclaimed from other functions' idle instances. With the host
// capped below the Abundant-Memory peak, slow reclamation stalls
// scale-ups and inflates tail latency (vanilla virtio-mem ≈3.15x);
// HarvestVM's buffers help latency but hold extra memory; Squeezy keeps
// both tail latency (≈1.1x) and the memory integral low.
//
// The plan has two stages. The restricted runs depend on data from
// the abundant runs — the host cap is two thirds of the abundant peak
// — so the plan uses a Then continuation: stage one simulates the
// three abundant baselines in parallel, stage two the three capped
// runs.
func Fig10Plan(opts Options) *Plan {
	// The protocol needs the full two burst waves to build memory
	// pressure, so Quick does not shrink this experiment (it runs in
	// ~2 s of real time anyway).
	duration := 320 * sim.Second
	kinds := []faas.BackendKind{faas.VirtioMem, faas.Harvest, faas.Squeezy}
	res := &Fig10Result{Baselines: make(map[string]Fig10Run)}
	baselines := make([]Fig10Run, len(kinds)) // skipping Squeezy's (== Abundant)
	capped := make([]Fig10Run, len(kinds))
	p := &Plan{Assemble: func() Result {
		for i, kind := range kinds {
			if kind == faas.Squeezy {
				res.Baselines[kind.String()] = res.Abundant
			} else {
				res.Baselines[kind.String()] = baselines[i]
			}
		}
		res.Runs = append(res.Runs[:0], capped...)
		return res
	}}
	p.Stage.Cell("abundant", func(w *World) {
		res.Abundant = fig10Run(w, "abundant", faas.Squeezy, 0, duration, opts)
	})
	for i, kind := range kinds {
		if kind == faas.Squeezy {
			// The cap-sizing run already is the uncapped Squeezy
			// configuration; don't simulate it a second time.
			continue
		}
		i, kind := i, kind
		p.Stage.Cell(kind.String()+"-abundant", func(w *World) {
			baselines[i] = fig10Run(w, kind.String()+"-abundant", kind, 0, duration, opts)
		})
	}
	p.Stage.Then = func() *Stage {
		// The paper restricts the host to ~70% of the abundant peak.
		// Under the SubSeed streams (PR 5's re-baseline) 2/3 lands in
		// the same regime: every scale-up rides on reclamation without
		// tipping any backend into queueing collapse — squeezy ≈1.1x as
		// in §6.2.2, vanilla virtio-mem several times worse. At 1/2 all
		// three backends storm; at 7/10 the pressure is too rare to
		// separate virtio-mem from the HarvestVM buffers.
		capBytes := res.Abundant.PeakCommittedBytes * 2 / 3
		st := &Stage{}
		for i, kind := range kinds {
			i, kind := i, kind
			st.Cell(kind.String()+"-capped", func(w *World) {
				capped[i] = fig10Run(w, kind.String(), kind, capBytes, duration, opts)
			})
		}
		return st
	}
	return p
}

// fig10Traces builds the per-function invocation schedule: a low base
// rate plus bursts staggered ~35 s apart, repeating every half of the
// experiment, so one function's scale-up overlaps another's keep-alive
// window (the tug-of-war of Figure 10 right).
func fig10Traces(duration sim.Duration, opts Options) map[string][]sim.Time {
	burstRPS := map[string]float64{"Cnn": 5, "Bert": 3, "BFS": 5, "HTML": 10}
	out := make(map[string][]sim.Time)
	half := duration / 2
	for i, fn := range workload.Functions() {
		offset := sim.Duration(20+35*i) * sim.Second
		segs := []rampSeg{
			{0, duration, 0.1}, // trickle keeps one instance warm
			{offset, offset + 30*sim.Second, burstRPS[fn.Name]},
			{half + offset, half + offset + 30*sim.Second, burstRPS[fn.Name]},
		}
		out[fn.Name] = rampArrivals(SubSeed(opts.seed(), i), segs)
	}
	return out
}

func fig10Run(w *World, label string, kind faas.BackendKind, hostCap int64, duration sim.Duration, opts Options) Fig10Run {
	sched := w.Scheduler()
	host := hostmem.New(hostCap)
	rt := w.Runtime(host, costmodel.Default())
	if kind == faas.Harvest {
		rt.ProactiveFactor = 1.5
	}
	vms := make(map[string]*faas.FuncVM)
	for _, fn := range workload.Functions() {
		cfg := faas.VMConfig{
			Name: fn.Name + "-" + label, Kind: kind, Fn: fn, N: 14,
			// Shorter than the stagger between burst waves (35 s), so a
			// wave's instances age out before the next wave lands and
			// its scale-ups must go through reclamation rather than the
			// leftover warm pool — the regime the figure measures. At
			// >= 33 s the warm pools bridge the stagger and every
			// backend looks abundant.
			KeepAlive: 32 * sim.Second,
		}
		if kind == faas.Harvest {
			cfg.HarvestBufferBytes = 2 * units.AlignUp(fn.MemoryLimit, units.BlockSize)
		}
		vms[fn.Name] = rt.AddVM(cfg)
	}
	for name, times := range fig10Traces(duration, opts) {
		fv := vms[name]
		fn := workload.ByName(name)
		for _, ts := range times {
			ts := ts
			sched.At(ts, func() { fv.Invoke(fn, nil) })
		}
	}

	run := Fig10Run{Method: label, P99Ms: make(map[string]float64)}
	run.Committed.Reserve(int(duration/sim.Second) + 1)
	var tick func()
	tick = func() {
		committed := rt.CommittedBytes()
		run.Committed.Append(sched.Now().Seconds(), float64(committed)/float64(units.GiB))
		if committed > run.PeakCommittedBytes {
			run.PeakCommittedBytes = committed
		}
		if sched.Now() < sim.Time(duration) {
			sched.After(sim.Second, tick)
		}
	}
	sched.At(0, tick)
	sched.RunUntil(sim.Time(duration))

	for name, fv := range vms {
		if s := fv.Latencies[name]; s != nil {
			run.P99Ms[name] = s.P99()
		}
		run.Dropped += fv.DroppedReqs
	}
	run.GiBs = run.Committed.Integral()
	return run
}

// NormalizedP99 returns run's P99 over the same method's abundant
// baseline for fn.
func (r *Fig10Result) NormalizedP99(method, fn string) float64 {
	base := r.Baselines[method].P99Ms[fn]
	if base == 0 {
		return 0
	}
	for _, run := range r.Runs {
		if run.Method == method {
			return run.P99Ms[fn] / base
		}
	}
	return 0
}

// GeomeanP99 returns the geometric mean of normalized P99s for a
// method.
func (r *Fig10Result) GeomeanP99(method string) float64 {
	var xs []float64
	for _, fn := range workload.Functions() {
		xs = append(xs, r.NormalizedP99(method, fn.Name))
	}
	return stats.Geomean(xs)
}

// GiBs returns the committed-memory integral for a method.
func (r *Fig10Result) GiBs(method string) float64 {
	if method == "abundant" {
		return r.Abundant.GiBs
	}
	for _, run := range r.Runs {
		if run.Method == method {
			return run.GiBs
		}
	}
	return 0
}

// Table renders both panels of the figure.
func (r *Fig10Result) Table() *Table {
	t := &Table{
		Title:  "Figure 10: normalized P99 latency and memory integral under restricted host memory",
		Header: []string{"method", "Html", "Cnn", "Bfs", "Bert", "Geomean", "GiB*s"},
	}
	t.AddRow("abundant", "1.00", "1.00", "1.00", "1.00", "1.00", f1(r.Abundant.GiBs))
	for _, run := range r.Runs {
		t.AddRow(run.Method,
			f2(r.NormalizedP99(run.Method, "HTML")),
			f2(r.NormalizedP99(run.Method, "Cnn")),
			f2(r.NormalizedP99(run.Method, "BFS")),
			f2(r.NormalizedP99(run.Method, "Bert")),
			f2(r.GeomeanP99(run.Method)),
			f1(run.GiBs))
	}
	return t
}

func init() {
	RegisterPlan("fig10", "Figure 10: normalized P99 latency and memory integral under restricted host memory", Fig10Plan)
}
