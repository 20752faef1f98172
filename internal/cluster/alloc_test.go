package cluster

import (
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/workload"
)

// TestWarmInvokeAllocatesNothing pins the allocation-free dispatch of
// a warm hit: once the keep-alive window has cycled, routing an
// invocation to a host with an idle instance, running it there, and
// retiring its flight makes no heap allocation. Flight records come
// off the serving host's free list and are their own completion
// target. Sketch mode bounds the latency samples, which otherwise grow
// with invocation count by design.
func TestWarmInvokeAllocatesNothing(t *testing.T) {
	for _, kind := range []faas.BackendKind{faas.VirtioMem, faas.Squeezy} {
		t.Run(kind.String(), func(t *testing.T) {
			cost := costmodel.Default()
			c := New(cost, Config{
				Hosts: 2, Backend: kind, N: 2, KeepAlive: 10 * sim.Second,
				Sketch: &stats.SketchConfig{K: 64, Seed: 1},
			}, NewPolicy("least-loaded", cost))
			fn := workload.ByName("HTML")
			invoke := func() {
				c.Invoke(fn, nil)
				c.AdvanceTo(c.Now().Add(sim.Second))
			}
			c.Invoke(fn, nil) // the cold start
			c.AdvanceTo(10 * sim.Time(sim.Second))
			// Warm up past the keep-alive window.
			for i := 0; i < 30; i++ {
				invoke()
			}
			const runs = 100
			if allocs := testing.AllocsPerRun(runs, invoke); allocs != 0 {
				t.Fatalf("warm Invoke allocates %v objects, want 0", allocs)
			}
			c.Drain(c.Now())
			m := c.Stats()
			if m.ColdStarts != 1 || m.WarmStarts != 30+runs+1 {
				t.Fatalf("cold %d, warm %d: not a warm steady state", m.ColdStarts, m.WarmStarts)
			}
		})
	}
}
