// Quickstart: boot a Squeezy-enabled guest, plug a partition, run a
// function instance inside it, and watch the instant unplug when it
// terminates — the paper's core workflow (Figure 4) in ~60 lines.
package main

import (
	"fmt"

	"squeezy/internal/core"
	"squeezy/internal/costmodel"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

func main() {
	sched := sim.NewScheduler()
	host := hostmem.New(0) // unlimited host memory
	vm := vmm.New("demo-vm", sched, costmodel.Default(), host, 4)

	// Guest kernel with 128 MiB of boot memory; Squeezy manages the rest.
	kernel := guestos.NewKernel(vm, guestos.Config{
		BootBytes:           units.BlockSize,
		KernelResidentBytes: 32 * units.MiB,
	})
	// Four 512 MiB partitions (concurrency factor N=4) plus a 256 MiB
	// shared partition for file-backed dependencies.
	mgr := core.NewManager(kernel, core.Config{
		PartitionBytes: 512 * units.MiB,
		Concurrency:    4,
		SharedBytes:    256 * units.MiB,
	})

	// Scale up: the hypervisor plugs one partition (Figure 4, step 2)...
	mgr.Plug(1, func(n int) {
		fmt.Printf("[%7.1fms] plugged %d partition(s)\n", sched.Now().Sub(0).Milliseconds(), n)
	})

	// ...and the agent spawns an instance attached to it (step 3).
	proc := kernel.Spawn("function-instance")
	mgr.Attach(proc, func(p *core.Partition) {
		fmt.Printf("[%7.1fms] instance attached to partition %d\n",
			sched.Now().Sub(0).Milliseconds(), p.ID)
		// The instance lazily faults in 300 MiB of anonymous memory,
		// confined to its partition.
		work, ok := kernel.TouchAnon(proc, 300*units.MiB, guestos.HugeOrder)
		fmt.Printf("           touched 300 MiB (fault work %v, fit=%v)\n", work, ok)
		fmt.Printf("           partition usage: %s\n",
			units.HumanBytes(units.PagesToBytes(p.Zone.NrAllocated())))

		// The instance terminates; its partition drains to zero and
		// becomes reclaimable.
		kernel.Exit(proc)
		fmt.Printf("           instance exited; reclaimable partitions: %d\n",
			mgr.FreeReclaimable())

		// Scale down: unplug the partition instantly — no migrations,
		// no zeroing (steps 5-6).
		start := sched.Now()
		mgr.Unplug(1, func(res vmm.ReclaimResult) {
			fmt.Printf("[%7.1fms] unplugged %s in %v (migration=0, zeroing=0)\n",
				sched.Now().Sub(0).Milliseconds(),
				units.HumanBytes(res.ReclaimedBytes),
				sched.Now().Sub(start))
			fmt.Printf("           host frames now populated: %s\n",
				units.HumanBytes(units.PagesToBytes(vm.PopulatedPages())))
		})
	})

	sched.Run()
}
