package experiments

import (
	"fmt"
	"math/rand/v2"

	"squeezy/internal/core"
	"squeezy/internal/costmodel"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/virtiomem"
	"squeezy/internal/vmm"
	"squeezy/internal/workload"
)

// Fig6Point is one point of Figure 6: the latency to unplug 2 GiB from
// a 64 GiB VM at a given memory utilization.
type Fig6Point struct {
	UtilizationPct int
	Method         string
	LatencyMs      float64
}

// Fig6Result is the full figure.
type Fig6Result struct {
	Points []Fig6Point
}

// Fig6Plan reproduces §6.1.1 / Figure 6: reclaim 2 GiB out of a 64 GiB
// VM while the rest of the memory fills with memhog instances. Page
// zeroing is disabled for vanilla virtio-mem, as in the paper, to
// isolate the migration effect. Vanilla latency climbs (and jitters)
// with utilization; Squeezy stays flat at ≈125 ms.
//
// The plan has one cell per utilization × method point. These are the
// largest single worlds in the registry (64 GiB spans), so the pooled
// ord arrays and bitmaps pay off most here.
func Fig6Plan(opts Options) *Plan {
	vmBytes := int64(64) * units.GiB
	utils := []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	if opts.Quick {
		vmBytes = 8 * units.GiB
		utils = []int{0, 30, 60, 90}
	}
	methods := []string{"virtio-mem", "squeezy"}
	res := &Fig6Result{Points: make([]Fig6Point, len(utils)*len(methods))}
	p := &Plan{Assemble: func() Result { return res }}
	for ui, u := range utils {
		for mi, method := range methods {
			i, u, method := ui*len(methods)+mi, u, method
			p.Stage.Cell(fmt.Sprintf("%s/util%d", method, u), func(w *World) {
				lat := fig6Run(w, method, vmBytes, u, opts.seed())
				res.Points[i] = Fig6Point{UtilizationPct: u, Method: method, LatencyMs: lat}
			})
		}
	}
	return p
}

func fig6Run(w *World, method string, vmBytes int64, utilPct int, seed uint64) float64 {
	const reclaim = 2 * units.GiB
	sched := w.Scheduler()
	host := hostmem.New(0)
	cost := costmodel.Default()
	cost.ZeroOnUnplug = false // isolate migrations, as the paper does
	vm := w.VM("fig6", cost, host, 8)
	vm.PinReclaimThreads()
	rng := rand.New(rand.NewPCG(seed, uint64(utilPct)))

	// The workload may occupy everything except the 2 GiB to reclaim.
	loadable := vmBytes - reclaim
	target := loadable * int64(utilPct) / 100

	switch method {
	case "squeezy":
		k := w.Kernel(vm, guestos.Config{
			BootBytes:           units.BlockSize,
			KernelResidentBytes: 32 * units.MiB,
		})
		n := int(vmBytes / reclaim)
		sq := core.NewManager(k, core.Config{PartitionBytes: reclaim, Concurrency: n})
		// Populate partitions for the load plus one instance that will
		// terminate and be reclaimed.
		loadParts := int((target + reclaim - 1) / reclaim)
		sq.Plug(loadParts+1, func(int) {})
		sched.Run()
		remaining := target
		for i := 0; i < loadParts; i++ {
			h := workload.NewMemhog(k, fmt.Sprintf("memhog%d", i), min64(reclaim, remaining))
			remaining -= h.Size
			sq.Attach(h.Proc, func(*core.Partition) {})
			if h.Size > 0 && !h.Warmup() {
				panic("fig6: warmup failed")
			}
		}
		// The to-be-reclaimed instance lives in its own partition.
		victim := workload.NewMemhog(k, "victim", reclaim*3/4)
		sq.Attach(victim.Proc, func(*core.Partition) {})
		victim.Warmup()
		victim.Kill()
		var lat sim.Duration
		start := sched.Now()
		sq.Unplug(1, func(vmm.ReclaimResult) { lat = sched.Now().Sub(start) })
		sched.Run()
		return lat.Milliseconds()

	default:
		k := w.Kernel(vm, guestos.Config{
			BootBytes:           units.BlockSize,
			MovableBytes:        vmBytes,
			KernelResidentBytes: 32 * units.MiB,
		})
		drv := virtiomem.New(k)
		drv.Plug(vmBytes, func(int64) {})
		sched.Run()
		// Give the allocator the history of a long-running guest, so
		// allocations scatter across all blocks (§6.1.1: "random
		// placement of memhog's pages over multiple memory blocks").
		k.ScrambleFreeLists(k.Movable, rng)
		// Fill to the target with concurrently faulting memhogs of
		// randomized sizes; interleaved slices scatter the footprints.
		var hogs []*workload.Memhog
		remaining := target
		for remaining > 0 {
			size := min64((512+int64(rng.IntN(1024)))*units.MiB, remaining)
			hogs = append(hogs, workload.NewMemhog(k, fmt.Sprintf("memhog%d", len(hogs)), size))
			remaining -= size
		}
		interleavedWarmup(k, hogs)
		// Churn a little so placement is history-dependent (the paper's
		// "random placement" jitter).
		for r := 0; r < 3; r++ {
			for _, h := range hogs {
				h.ReleaseChurn()
			}
			for _, h := range hogs {
				if !h.TouchChurn() {
					panic("fig6: churn failed")
				}
			}
		}
		var lat sim.Duration
		start := sched.Now()
		drv.Unplug(reclaim, func(res vmm.ReclaimResult) {
			if res.ReclaimedBytes < reclaim {
				panic("fig6: partial reclaim with free memory available")
			}
			lat = sched.Now().Sub(start)
		})
		sched.Run()
		return lat.Milliseconds()
	}
}

// interleavedWarmup touches all memhogs' footprints in interleaved 16
// MiB slices, mimicking concurrent faulting.
func interleavedWarmup(k *guestos.Kernel, hogs []*workload.Memhog) {
	const slice = 16 * units.MiB
	for {
		progressed := false
		for _, h := range hogs {
			remaining := h.Size - units.PagesToBytes(h.Proc.AnonPages())
			if remaining <= 0 {
				continue
			}
			chunk := min64(slice, remaining)
			if _, ok := k.TouchAnon(h.Proc, chunk, guestos.HugeOrder); !ok {
				panic("warmup did not fit")
			}
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Table renders the figure.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title:  "Figure 6: latency to unplug 2 GiB vs memory utilization",
		Header: []string{"util(%)", "virtio-mem(ms)", "squeezy(ms)"},
	}
	byUtil := map[int]map[string]float64{}
	var order []int
	for _, p := range r.Points {
		if byUtil[p.UtilizationPct] == nil {
			byUtil[p.UtilizationPct] = map[string]float64{}
			order = append(order, p.UtilizationPct)
		}
		byUtil[p.UtilizationPct][p.Method] = p.LatencyMs
	}
	for _, u := range order {
		t.AddRow(fmt.Sprintf("%d", u), f1(byUtil[u]["virtio-mem"]), f1(byUtil[u]["squeezy"]))
	}
	return t
}

func init() {
	RegisterPlan("fig6", "Figure 6: latency to unplug 2 GiB vs memory utilization", Fig6Plan)
}
