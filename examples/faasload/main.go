// faasload: an N:1 FaaS runtime serving a bursty trace on a Squeezy VM
// — the §6.2 integration. Prints a per-10s dashboard of live instances,
// committed and populated host memory, and final latency statistics.
package main

import (
	"fmt"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/trace"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

func main() {
	sched := sim.NewScheduler()
	rt := faas.NewRuntime(sched, hostmem.New(0), costmodel.Default())
	fn := workload.ByName("Cnn")
	fv := rt.AddVM(faas.VMConfig{
		Name: "cnn-vm", Kind: faas.Squeezy, Fn: fn, N: 16,
		KeepAlive: 45 * sim.Second,
	})

	const duration = 4 * sim.Minute
	src := trace.NewBursty(7, trace.BurstyConfig{
		Duration: duration * 3 / 4,
		BaseRPS:  0.3, BurstRPS: 5,
		BurstLen: 20 * sim.Second, BurstGap: 40 * sim.Second,
	})
	for inv, ok := src.Next(); ok; inv, ok = src.Next() {
		sched.At(inv.T, func() { fv.InvokePrimary(nil) })
	}

	fmt.Println("  time  live  idle  committed  populated")
	var tick func()
	tick = func() {
		fmt.Printf("%5.0fs  %4d  %4d  %9s  %9s\n",
			sched.Now().Seconds(), fv.LiveInstances(), fv.IdleInstances(),
			units.HumanBytes(rt.CommittedBytes()), units.HumanBytes(rt.PopulatedBytes()))
		if sched.Now() < sim.Time(duration) {
			sched.After(10*sim.Second, tick)
		}
	}
	sched.At(0, tick)
	sched.RunUntil(sim.Time(duration))

	lat := fv.Latencies[fn.Name]
	fmt.Printf("\nrequests: %d (cold %d, warm %d)\n", lat.N(), fv.ColdStarts, fv.WarmStarts)
	fmt.Printf("latency: p50 %.0fms  p99 %.0fms  max %.0fms\n", lat.P50(), lat.P99(), lat.Max())
	fmt.Printf("reclaimed %s across %d unplugs (%.0f MiB/s)\n",
		units.HumanBytes(fv.ReclaimedBytes), fv.ReclaimOps, fv.ReclaimThroughputMiBs())
}
