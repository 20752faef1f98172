// reclaim: the §6.1 microbenchmark head-to-head — kill a memhog
// instance in a loaded VM and reclaim its memory with ballooning,
// vanilla virtio-mem, and Squeezy, printing the latency breakdowns.
package main

import (
	"fmt"

	"squeezy/internal/balloon"
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

const (
	instSize  = 512 * units.MiB
	instances = 8
)

func main() {
	fmt.Printf("reclaiming %s from a VM with %d memhog instances\n\n",
		units.HumanBytes(instSize), instances)
	runBalloon()
	runVirtioMem()
	runSqueezy()
}

func newVM(sched *sim.Scheduler) *vmm.VM {
	vm := vmm.New("bench", sched, costmodel.Default(), hostmem.New(0), 8)
	vm.PinReclaimThreads()
	return vm
}

func loadHogs(k *guestos.Kernel, attach func(*workload.Memhog)) []*workload.Memhog {
	hogs := make([]*workload.Memhog, instances)
	for i := range hogs {
		hogs[i] = workload.NewMemhog(k, fmt.Sprintf("memhog%d", i), instSize)
		if attach != nil {
			attach(hogs[i])
		}
	}
	// Interleaved warmup scatters footprints across blocks.
	const slice = 16 * units.MiB
	for r := int64(0); r < instSize/slice; r++ {
		for _, h := range hogs {
			k.TouchAnon(h.Proc, slice, guestos.HugeOrder)
		}
	}
	return hogs
}

func runBalloon() {
	sched := sim.NewScheduler()
	vm := newVM(sched)
	k := guestos.NewKernel(vm, guestos.Config{
		BootBytes: units.BlockSize, MovableBytes: instances * instSize,
		KernelResidentBytes: 16 * units.MiB,
	})
	k.OnlineAllMovable()
	d := balloon.New(k)
	hogs := loadHogs(k, nil)
	hogs[0].Kill()
	d.Inflate(instSize, func(r vmm.ReclaimResult) {
		fmt.Printf("balloon:    %8.1fms  (%s)\n", r.Latency.Milliseconds(), r.Breakdown)
	})
	sched.Run()
}

func runVirtioMem() {
	sched := sim.NewScheduler()
	vm := newVM(sched)
	k := guestos.NewKernel(vm, guestos.Config{
		BootBytes: units.BlockSize, MovableBytes: instances * instSize,
		KernelResidentBytes: 16 * units.MiB,
	})
	d := virtiomem.New(k)
	d.Plug(instances*instSize, func(int64) {})
	sched.Run()
	hogs := loadHogs(k, nil)
	hogs[0].Kill()
	d.Unplug(instSize, func(r vmm.ReclaimResult) {
		fmt.Printf("virtio-mem: %8.1fms  (%s)\n", r.Latency.Milliseconds(), r.Breakdown)
	})
	sched.Run()
}

func runSqueezy() {
	sched := sim.NewScheduler()
	vm := newVM(sched)
	k := guestos.NewKernel(vm, guestos.Config{
		BootBytes: units.BlockSize, KernelResidentBytes: 16 * units.MiB,
	})
	mgr := core.NewManager(k, core.Config{PartitionBytes: instSize, Concurrency: instances})
	mgr.Plug(instances, func(int) {})
	sched.Run()
	hogs := loadHogs(k, func(h *workload.Memhog) {
		mgr.Attach(h.Proc, func(*core.Partition) {})
	})
	hogs[0].Kill()
	mgr.Unplug(1, func(r vmm.ReclaimResult) {
		fmt.Printf("squeezy:    %8.1fms  (%s)\n", r.Latency.Milliseconds(), r.Breakdown)
	})
	sched.Run()
}
