package experiments

import (
	"fmt"

	"squeezy/internal/core"
	"squeezy/internal/costmodel"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/units"
	"squeezy/internal/virtiomem"
	"squeezy/internal/vmm"
	"squeezy/internal/workload"
)

// Ablation drivers for the design choices DESIGN.md calls out. Each
// returns a latency in milliseconds.

// ablationBatching measures a Squeezy unplug of the given size with and
// without VM-exit batching (§8: batching would merge the ~3 ms per
// 128 MiB chunk exits of one request into a single exit). Unbatched, it
// is also the partition-size ablation: one partition's unplug latency
// is linear in its blocks.
func ablationBatching(w *World, batched bool, bytes int64) float64 {
	sched := w.Scheduler()
	cost := costmodel.Default()
	cost.BatchUnplugExits = batched
	vm := w.VM("ablation", cost, hostmem.New(0), 4)
	vm.PinReclaimThreads()
	k := w.Kernel(vm, guestos.Config{
		BootBytes: units.BlockSize, KernelResidentBytes: 16 * units.MiB,
	})
	mgr := core.NewManager(k, core.Config{PartitionBytes: bytes, Concurrency: 2})
	mgr.Plug(1, func(int) {})
	sched.Run()
	var latMs float64
	mgr.Unplug(1, func(r vmm.ReclaimResult) { latMs = r.Latency.Milliseconds() })
	sched.Run()
	return latMs
}

// ablationZeroing measures a vanilla virtio-mem 512 MiB unplug from a
// half-loaded guest with the kernel's zero-on-alloc hardening on or off
// (§2.2: zeroing is ~24% of unplug latency).
func ablationZeroing(w *World, zeroing bool) float64 {
	cost := costmodel.Default()
	cost.ZeroOnUnplug = zeroing
	return vanillaUnplug512(w, cost, virtiomem.EmptiestFirst)
}

// vanillaUnplug512 measures a vanilla virtio-mem 512 MiB unplug from a
// half-loaded 4 GiB guest under one block-selection policy.
func vanillaUnplug512(w *World, cost *costmodel.Model, policy virtiomem.CandidatePolicy) float64 {
	sched := w.Scheduler()
	vm := w.VM("ablation", cost, hostmem.New(0), 4)
	vm.PinReclaimThreads()
	const vmBytes = 4 * units.GiB
	k := w.Kernel(vm, guestos.Config{
		BootBytes: units.BlockSize, MovableBytes: vmBytes,
		KernelResidentBytes: 16 * units.MiB,
	})
	drv := virtiomem.New(k)
	drv.Policy = policy
	drv.Plug(vmBytes, func(int64) {})
	sched.Run()
	hogs := make([]*workload.Memhog, 4)
	for i := range hogs {
		hogs[i] = workload.NewMemhog(k, fmt.Sprintf("hog%d", i), 512*units.MiB)
	}
	interleavedWarmup(k, hogs)
	hogs[0].Kill()
	var latMs float64
	drv.Unplug(512*units.MiB, func(r vmm.ReclaimResult) { latMs = r.Latency.Milliseconds() })
	sched.Run()
	return latMs
}

// The ablations register as experiments too, so `squeezyctl all`
// covers the design-choice studies alongside the paper figures. They
// are deterministic closed-form sweeps: Options.Seed is accepted for
// interface uniformity but unused, and Quick shrinks the swept sizes.
// Each sweep point is one cell of the experiment's plan.

// ablationPlan builds a two-column table plan: one cell per swept
// configuration, each filling its pre-assigned row value.
func ablationPlan(title string, header [2]string, rows []string, run func(w *World, i int) float64) *Plan {
	vals := make([]float64, len(rows))
	p := &Plan{Assemble: func() Result {
		t := &Table{Title: title, Header: header[:]}
		for i, label := range rows {
			t.AddRow(label, f1(vals[i]))
		}
		return t
	}}
	for i, label := range rows {
		i := i
		p.Stage.Cell(label, func(w *World) { vals[i] = run(w, i) })
	}
	return p
}

func init() {
	RegisterPlan("abl-batching", "Ablation (§8): VM-exit batching on a Squeezy unplug",
		func(o Options) *Plan {
			bytes := int64(2 * units.GiB)
			if o.Quick {
				bytes = 512 * units.MiB
			}
			return ablationPlan(
				"Ablation: VM-exit batching on a "+units.HumanBytes(bytes)+" Squeezy unplug",
				[2]string{"mode", "unplug(ms)"}, []string{"unbatched", "batched"},
				func(w *World, i int) float64 { return ablationBatching(w, i == 1, bytes) })
		})
	RegisterPlan("abl-zeroing", "Ablation (§2.2): zero-on-unplug tax on a vanilla 512 MiB unplug",
		func(o Options) *Plan {
			return ablationPlan(
				"Ablation: kernel zeroing on the vanilla virtio-mem unplug path",
				[2]string{"zeroing", "unplug-512MiB(ms)"}, []string{"on", "off"},
				func(w *World, i int) float64 { return ablationZeroing(w, i == 0) })
		})
	RegisterPlan("abl-policy", "Ablation: virtio-mem block-selection policy (emptiest vs highest)",
		func(o Options) *Plan {
			policies := []virtiomem.CandidatePolicy{virtiomem.EmptiestFirst, virtiomem.HighestFirst}
			return ablationPlan(
				"Ablation: virtio-mem candidate-block policy, 512 MiB unplug",
				[2]string{"policy", "unplug-512MiB(ms)"}, []string{"emptiest", "highest"},
				func(w *World, i int) float64 { return vanillaUnplug512(w, costmodel.Default(), policies[i]) })
		})
	RegisterPlan("abl-partition", "Ablation: Squeezy partition rated size vs unplug latency",
		func(o Options) *Plan {
			sizes := []int64{128, 512, 2048}
			if o.Quick {
				sizes = []int64{128, 512}
			}
			labels := make([]string, len(sizes))
			for i, mib := range sizes {
				labels[i] = units.HumanBytes(mib * units.MiB)
			}
			return ablationPlan(
				"Ablation: unplug latency of one partition by rated size",
				[2]string{"partition", "unplug(ms)"}, labels,
				func(w *World, i int) float64 { return ablationBatching(w, false, sizes[i]*units.MiB) })
		})
}
