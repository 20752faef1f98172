package experiments

import (
	"fmt"

	"squeezy/internal/balloon"
	"squeezy/internal/core"
	"squeezy/internal/costmodel"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/stats"
	"squeezy/internal/units"
	"squeezy/internal/virtiomem"
	"squeezy/internal/vmm"
	"squeezy/internal/workload"
)

// Fig5Row is one bar of Figure 5: the average latency to reclaim
// memory of a given size with one interface, broken down into the
// paper's four buckets (milliseconds).
type Fig5Row struct {
	SizeMiB      int64
	Method       string
	AvgLatencyMs float64
	ZeroingMs    float64
	MigrationMs  float64
	VMExitsMs    float64
	RestMs       float64
}

// Fig5Result is the full figure.
type Fig5Result struct {
	Rows []Fig5Row
}

// Fig5 reproduces §6.1.1 / Figure 5: a 32:1 VM fully occupied by 32
// memhog instances; instances are killed iteratively and after each
// kill the host reclaims one instance's worth of memory. The reported
// latency is the average over the 32 reclamation steps, per memory
// size and interface.
func Fig5(opts Options) *Fig5Result {
	return Fig5Plan(opts).runSerial(newWorld()).(*Fig5Result)
}

// Fig5Plan is the figure as a cell plan: one cell per size × method
// combination.
func Fig5Plan(opts Options) *Plan {
	sizes := []int64{128, 256, 512, 1024, 2048}
	instances := 32
	if opts.Quick {
		sizes = []int64{128, 512}
		instances = 8
	}
	methods := []string{"balloon", "virtio-mem", "squeezy"}
	res := &Fig5Result{Rows: make([]Fig5Row, len(sizes)*len(methods))}
	p := &Plan{Assemble: func() Result { return res }}
	for si, sizeMiB := range sizes {
		for mi, method := range methods {
			i, sizeMiB, method := si*len(methods)+mi, sizeMiB, method
			p.Stage.Cell(fmt.Sprintf("%s/%dMiB", method, sizeMiB), func(w *World) {
				res.Rows[i] = fig5Run(w, method, sizeMiB*units.MiB, instances)
			})
		}
	}
	return p
}

func fig5Run(w *World, method string, instSize int64, n int) Fig5Row {
	sched := w.Scheduler()
	host := hostmem.New(0)
	cost := costmodel.Default()
	vm := w.VM("fig5", cost, host, float64(n))
	vm.PinReclaimThreads()

	instBytes := units.AlignUp(instSize, units.BlockSize)
	var k *guestos.Kernel
	var sq *core.Manager
	var vdrv *virtiomem.Driver
	var bdrv *balloon.Driver

	switch method {
	case "squeezy":
		k = w.Kernel(vm, guestos.Config{
			BootBytes:           units.BlockSize,
			KernelResidentBytes: 32 * units.MiB,
		})
		sq = core.NewManager(k, core.Config{PartitionBytes: instBytes, Concurrency: n})
		sq.Plug(n, func(int) {})
		sched.Run()
	default:
		k = w.Kernel(vm, guestos.Config{
			BootBytes:           units.BlockSize,
			MovableBytes:        int64(n) * instBytes,
			KernelResidentBytes: 32 * units.MiB,
		})
		if method == "virtio-mem" {
			vdrv = virtiomem.New(k)
			vdrv.Plug(int64(n)*instBytes, func(int64) {})
			sched.Run()
		} else {
			k.OnlineAllMovable()
			bdrv = balloon.New(k)
		}
	}

	// 32 memhogs sized so the VM is fully occupied; interleaved warmup
	// and churn scatter their footprints across blocks (vanilla case).
	hogs := make([]*workload.Memhog, n)
	for i := range hogs {
		hogs[i] = workload.NewMemhog(k, fmt.Sprintf("memhog%d", i), instSize)
	}
	if method == "squeezy" {
		for _, h := range hogs {
			sq.Attach(h.Proc, func(*core.Partition) {})
		}
	}
	// Interleaved warm-up in 16 MiB slices: concurrent instances fault
	// alternately, so every 128 MiB block ends up holding pages of many
	// instances — the interleaving of Figure 3. (Slices much smaller
	// than a block are what make vanilla unplug migration-bound.)
	const slice = 16 * units.MiB
	rounds := int((instSize + slice - 1) / slice)
	for r := 0; r < rounds; r++ {
		for _, h := range hogs {
			chunk := slice
			if remaining := instSize - units.PagesToBytes(h.Proc.AnonPages()); remaining < chunk {
				chunk = remaining
			}
			if chunk > 0 {
				if _, ok := k.TouchAnon(h.Proc, chunk, guestos.HugeOrder); !ok {
					panic("fig5: warmup did not fit")
				}
			}
		}
	}

	// Kill iteratively; reclaim after each kill; average the steps.
	var lat stats.Sample
	bd := stats.NewBreakdown(vmm.BreakdownLabels()...)
	for _, h := range hogs {
		h.Kill()
		start := sched.Now()
		done := func(r vmm.ReclaimResult) {
			lat.Add(sched.Now().Sub(start).Milliseconds())
			accumulate(bd, r.Breakdown)
		}
		switch method {
		case "balloon":
			bdrv.Inflate(instBytes, done)
		case "virtio-mem":
			vdrv.Unplug(instBytes, done)
		case "squeezy":
			sq.Unplug(1, done)
		}
		sched.Run()
	}

	steps := float64(lat.N())
	return Fig5Row{
		SizeMiB:      instSize / units.MiB,
		Method:       method,
		AvgLatencyMs: lat.Mean(),
		ZeroingMs:    bd.Get(vmm.StepZeroing) / steps,
		MigrationMs:  bd.Get(vmm.StepMigration) / steps,
		VMExitsMs:    bd.Get(vmm.StepVMExits) / steps,
		RestMs:       bd.Get(vmm.StepRest) / steps,
	}
}

func accumulate(dst, src *stats.Breakdown) {
	for i, l := range src.Labels {
		dst.Add(l, src.Parts[i])
	}
}

// Table renders the figure as text.
func (r *Fig5Result) Table() *Table {
	t := &Table{
		Title:  "Figure 5: reclaim latency (ms) by size and interface",
		Header: []string{"size(MiB)", "method", "avg(ms)", "zeroing", "migration", "vmexits", "rest"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.SizeMiB), row.Method, f1(row.AvgLatencyMs),
			f1(row.ZeroingMs), f1(row.MigrationMs), f1(row.VMExitsMs), f1(row.RestMs))
	}
	return t
}

// Speedup returns the average latency ratio of two methods across
// sizes (e.g. virtio-mem over squeezy ≈ 10.9x in the paper).
func (r *Fig5Result) Speedup(slow, fast string) float64 {
	bySize := map[int64]map[string]float64{}
	for _, row := range r.Rows {
		if bySize[row.SizeMiB] == nil {
			bySize[row.SizeMiB] = map[string]float64{}
		}
		bySize[row.SizeMiB][row.Method] = row.AvgLatencyMs
	}
	var ratios []float64
	for _, m := range bySize {
		if m[fast] > 0 {
			ratios = append(ratios, m[slow]/m[fast])
		}
	}
	var sum float64
	for _, x := range ratios {
		sum += x
	}
	if len(ratios) == 0 {
		return 0
	}
	return sum / float64(len(ratios))
}

func init() {
	RegisterPlan("fig5", "Figure 5: reclaim latency (ms) by size and interface", Fig5Plan)
}
