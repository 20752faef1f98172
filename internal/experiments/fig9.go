package experiments

import (
	"math/rand/v2"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/workload"
)

// rampSeg is one constant-rate segment of an arrival schedule.
type rampSeg struct {
	from, to sim.Duration
	rps      float64
}

// rampArrivals synthesizes Poisson arrivals whose rate steps through
// the given segments.
func rampArrivals(seed uint64, segs []rampSeg) []sim.Time {
	rng := rand.New(rand.NewPCG(seed, 0x99))
	var out []sim.Time
	for _, seg := range segs {
		t := seg.from
		for t < seg.to {
			gap := sim.Duration(rng.ExpFloat64() / seg.rps * float64(sim.Second))
			if gap < sim.Millisecond {
				gap = sim.Millisecond
			}
			t += gap
			if t < seg.to {
				out = append(out, sim.Time(t))
			}
		}
	}
	return out
}

// Fig9Series is one method's per-second average CNN request latency
// (ms) around the HTML scale-down event.
type Fig9Series struct {
	Method    string
	Seconds   []int
	LatencyMs []float64
	// EvictionStart marks when HTML keep-alive evictions began.
	EvictionStart sim.Time
}

// Baseline returns the mean latency in the quiet window right before
// the scale-down event (after the HTML load stopped, so only CNN runs).
func (s *Fig9Series) Baseline() float64 {
	lo := s.EvictionStart.Add(-25 * sim.Second)
	var xs []float64
	for i, sec := range s.Seconds {
		at := sim.Time(sec) * sim.Time(sim.Second)
		if at >= lo && at < s.EvictionStart && s.LatencyMs[i] > 0 {
			xs = append(xs, s.LatencyMs[i])
		}
	}
	return meanOf(xs)
}

// PeakDuring returns the max per-second latency in the scale-down
// window (eviction start plus 30 seconds).
func (s *Fig9Series) PeakDuring() float64 {
	hi := s.EvictionStart.Add(30 * sim.Second)
	m := 0.0
	for i, sec := range s.Seconds {
		at := sim.Time(sec) * sim.Time(sim.Second)
		if at >= s.EvictionStart && at < hi && s.LatencyMs[i] > m {
			m = s.LatencyMs[i]
		}
	}
	return m
}

// Fig9Result is the full figure.
type Fig9Result struct {
	Series []Fig9Series
}

// Fig9Plan reproduces §6.2.1 / Figure 9: CNN and HTML instances
// co-located in one N:1 VM whose reclaim threads share the vCPUs with
// the instances. HTML load stops early; when its keep-alive expires the
// runtime scales the HTML instances down while CNN keeps serving.
// Vanilla virtio-mem's migrations steal CNN's CPU and more than double
// its latency; Squeezy's unplug is invisible.
//
// The plan has one cell per backend.
func Fig9Plan(opts Options) *Plan {
	duration := 280 * sim.Second
	htmlStop := 150 * sim.Second
	keepAlive := 45 * sim.Second
	kinds := []faas.BackendKind{faas.VirtioMem, faas.Squeezy}
	res := &Fig9Result{Series: make([]Fig9Series, len(kinds))}
	p := &Plan{Assemble: func() Result { return res }}
	for i, kind := range kinds {
		i, kind := i, kind
		p.Stage.Cell(kind.String(), func(w *World) {
			res.Series[i] = fig9Run(w, kind, duration, htmlStop, keepAlive, opts)
		})
	}
	return p
}

func fig9Run(w *World, kind faas.BackendKind, duration, htmlStop, keepAlive sim.Duration, opts Options) Fig9Series {
	cnn := workload.ByName("Cnn")
	html := workload.ByName("HTML")
	sched := w.Scheduler()
	rt := w.Runtime(hostmem.New(0), costmodel.Default())
	fv := rt.AddVM(faas.VMConfig{
		Name: "colo", Kind: kind, Fn: cnn, CoFns: []*workload.Function{html},
		N: 32, KeepAlive: keepAlive,
		// vCPUs sized so the steady CNN load runs at ~90% utilization:
		// the unpinned reclaim kthread stealing one vCPU tips the VM
		// into overload, exactly the §6.2.1 interference scenario.
		VCPUs: 4,
	})

	// CNN: ramp to ~22 warm rps (≈3.3 busy cores of the 4) so the cold
	// starts spread out instead of storming the vCPUs at t=0.
	cnnTimes := rampArrivals(SubSeed(opts.seed(), 0), []rampSeg{
		{0, 30 * sim.Second, 4},
		{30 * sim.Second, 60 * sim.Second, 10},
		{60 * sim.Second, 90 * sim.Second, 16},
		{90 * sim.Second, duration, 22},
	})
	// HTML: load until htmlStop, then silent — its instances idle out.
	htmlTimes := rampArrivals(SubSeed(opts.seed(), 1), []rampSeg{
		{0, htmlStop, 4},
	})
	for _, ts := range cnnTimes {
		ts := ts
		sched.At(ts, func() { fv.InvokePrimary(nil) })
	}
	for _, ts := range htmlTimes {
		ts := ts
		sched.At(ts, func() { fv.Invoke(html, nil) })
	}
	sched.RunUntil(sim.Time(duration))

	// Bin CNN completions per second.
	evictionStart := sim.Time(htmlStop + keepAlive)
	secs := int(duration / sim.Second)
	sums := make([]float64, secs)
	counts := make([]int, secs)
	for _, c := range fv.Completions {
		if c.Fn != "Cnn" || c.Cold {
			continue // the paper plots steady-state request latency
		}
		b := int(sim.Duration(c.At) / sim.Second)
		if b >= 0 && b < secs {
			sums[b] += c.Latency.Milliseconds()
			counts[b]++
		}
	}
	s := Fig9Series{Method: kind.String(), EvictionStart: evictionStart}
	for i := 0; i < secs; i++ {
		if counts[i] == 0 {
			continue
		}
		s.Seconds = append(s.Seconds, i)
		s.LatencyMs = append(s.LatencyMs, sums[i]/float64(counts[i]))
	}
	return s
}

// Table summarizes the interference.
func (r *Fig9Result) Table() *Table {
	t := &Table{
		Title:  "Figure 9: CNN request latency around the HTML scale-down",
		Header: []string{"method", "baseline(ms)", "peak during scale-down(ms)", "slowdown"},
	}
	for _, s := range r.Series {
		base, peak := s.Baseline(), s.PeakDuring()
		slow := 0.0
		if base > 0 {
			slow = peak / base
		}
		t.AddRow(s.Method, f1(base), f1(peak), f2(slow))
	}
	return t
}

func init() {
	RegisterPlan("fig9", "Figure 9: CNN request latency around the HTML scale-down", Fig9Plan)
}
