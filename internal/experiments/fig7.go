package experiments

import (
	"fmt"
	"math/rand/v2"

	"squeezy/internal/balloon"
	"squeezy/internal/core"
	"squeezy/internal/costmodel"
	"squeezy/internal/cpu"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/virtiomem"
	"squeezy/internal/vmm"
	"squeezy/internal/workload"
)

// Fig7Series is one method's CPU-utilization trace: per-second guest
// and host reclaim-thread utilization percentages over the experiment.
type Fig7Series struct {
	Method   string
	GuestPct []float64
	HostPct  []float64
}

// AvgGuest returns the mean guest reclaim-thread utilization.
func (s *Fig7Series) AvgGuest() float64 { return meanOf(s.GuestPct) }

// AvgHost returns the mean host reclaim-thread utilization.
func (s *Fig7Series) AvgHost() float64 { return meanOf(s.HostPct) }

// PeakHost returns the max per-second host utilization.
func (s *Fig7Series) PeakHost() float64 {
	m := 0.0
	for _, v := range s.HostPct {
		if v > m {
			m = v
		}
	}
	return m
}

// PeakGuest returns the max per-second guest utilization.
func (s *Fig7Series) PeakGuest() float64 {
	m := 0.0
	for _, v := range s.GuestPct {
		if v > m {
			m = v
		}
	}
	return m
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Fig7Result is the full figure.
type Fig7Result struct {
	Series []Fig7Series
}

// Fig7Plan reproduces §6.1.2 / Figure 7: with reclaim kernel threads
// pinned to a dedicated vCPU and the VMM threads to a dedicated host
// core, repeatedly reclaim (and return) 512 MiB of guest memory for 200
// seconds and sample both threads' CPU utilization once per second.
// Ballooning spikes the host thread, vanilla virtio-mem burns the guest
// vCPU on migrations, Squeezy uses almost nothing.
//
// The plan has one cell per method.
func Fig7Plan(opts Options) *Plan {
	duration := 200 * sim.Second
	if opts.Quick {
		duration = 60 * sim.Second
	}
	methods := []string{"balloon", "virtio-mem", "squeezy"}
	res := &Fig7Result{Series: make([]Fig7Series, len(methods))}
	p := &Plan{Assemble: func() Result { return res }}
	for i, method := range methods {
		i, method := i, method
		p.Stage.Cell(method, func(w *World) {
			res.Series[i] = fig7Run(w, method, duration, opts.seed())
		})
	}
	return p
}

func fig7Run(w *World, method string, duration sim.Duration, seed uint64) Fig7Series {
	const (
		vmBytes   = 16 * units.GiB
		loadBytes = 8 * units.GiB
		reclaim   = 512 * units.MiB
		period    = 10 * sim.Second
	)
	sched := w.Scheduler()
	host := hostmem.New(0)
	cost := costmodel.Default()
	vm := w.VM("fig7", cost, host, 8)
	vm.PinReclaimThreads() // dedicated guest vCPU, as in §6.1.2
	rng := rand.New(rand.NewPCG(seed, 7))

	var k *guestos.Kernel
	var sq *core.Manager
	var vdrv *virtiomem.Driver
	var bdrv *balloon.Driver
	guestClass, hostClass := "", ""

	switch method {
	case "squeezy":
		k = w.Kernel(vm, guestos.Config{BootBytes: units.BlockSize, KernelResidentBytes: 32 * units.MiB})
		n := int(vmBytes / reclaim)
		sq = core.NewManager(k, core.Config{PartitionBytes: reclaim, Concurrency: n})
		loadParts := int(loadBytes / reclaim)
		sq.Plug(loadParts+1, func(int) {}) // one spare partition cycles
		sched.Run()
		for i := 0; i < loadParts; i++ {
			h := workload.NewMemhog(k, fmt.Sprintf("hog%d", i), reclaim*3/4)
			sq.Attach(h.Proc, func(*core.Partition) {})
			h.Warmup()
		}
		guestClass, hostClass = core.GuestClass, core.HostClass
	default:
		k = w.Kernel(vm, guestos.Config{
			BootBytes: units.BlockSize, MovableBytes: vmBytes, KernelResidentBytes: 32 * units.MiB,
		})
		if method == "virtio-mem" {
			vdrv = virtiomem.New(k)
			vdrv.Plug(vmBytes, func(int64) {})
			sched.Run()
			guestClass, hostClass = virtiomem.GuestClass, virtiomem.HostClass
		} else {
			k.OnlineAllMovable()
			bdrv = balloon.New(k)
			guestClass, hostClass = balloon.GuestClass, balloon.HostClass
		}
		k.ScrambleFreeLists(k.Movable, rng)
		var hogs []*workload.Memhog
		for filled := int64(0); filled < loadBytes; filled += units.GiB {
			hogs = append(hogs, workload.NewMemhog(k, fmt.Sprintf("hog%d", len(hogs)), units.GiB))
		}
		interleavedWarmup(k, hogs)
	}

	// Reclaim/return cycle.
	var cycle func()
	cycle = func() {
		switch method {
		case "balloon":
			bdrv.Inflate(reclaim, func(vmm.ReclaimResult) {
				sched.After(period/2, func() { bdrv.Deflate(reclaim) })
			})
		case "virtio-mem":
			vdrv.Unplug(reclaim, func(vmm.ReclaimResult) {
				sched.After(period/2, func() { vdrv.Plug(reclaim, func(int64) {}) })
			})
		case "squeezy":
			sq.Unplug(1, func(vmm.ReclaimResult) {
				sched.After(period/2, func() { sq.Plug(1, func(int) {}) })
			})
		}
	}
	for t := sim.Duration(0); t < duration; t += period {
		sched.At(sched.Now().Add(t+sim.Second), cycle)
	}

	// Per-second sampling of both pinned threads.
	series := Fig7Series{Method: method}
	samplePools := func() (g, h *cpu.Pool) { return vm.GuestReclaimPool(), vm.HostThreads }
	var lastG, lastH sim.Duration
	var tick func()
	tick = func() {
		g, h := samplePools()
		curG, curH := g.Utilization(guestClass), h.Utilization(hostClass)
		series.GuestPct = append(series.GuestPct, 100*float64(curG-lastG)/float64(sim.Second))
		series.HostPct = append(series.HostPct, 100*float64(curH-lastH)/float64(sim.Second))
		lastG, lastH = curG, curH
		if sched.Now() < sim.Time(duration) {
			sched.After(sim.Second, tick)
		}
	}
	sched.After(sim.Second, tick)
	sched.RunUntil(sim.Time(duration))
	return series
}

// Table renders the figure summary (mean and peak utilization).
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Title:  "Figure 7: reclaim-thread CPU utilization (%) over repeated 512 MiB reclaims",
		Header: []string{"method", "guest avg", "guest peak", "host avg", "host peak"},
	}
	for _, s := range r.Series {
		t.AddRow(s.Method, f1(s.AvgGuest()), f1(s.PeakGuest()), f1(s.AvgHost()), f1(s.PeakHost()))
	}
	return t
}

func init() {
	RegisterPlan("fig7", "Figure 7: reclaim-thread CPU utilization (%) over repeated 512 MiB reclaims", Fig7Plan)
}
