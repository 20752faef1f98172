package workload

import (
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

func TestTable1(t *testing.T) {
	fns := Functions()
	if len(fns) != 4 {
		t.Fatalf("functions = %d", len(fns))
	}
	limits := map[string]int64{
		"Cnn": 768 * units.MiB, "Bert": 1536 * units.MiB,
		"BFS": 768 * units.MiB, "HTML": 768 * units.MiB,
	}
	shares := map[string]float64{"Cnn": 1, "Bert": 1, "BFS": 1, "HTML": 0.25}
	for _, f := range fns {
		if f.MemoryLimit != limits[f.Name] {
			t.Errorf("%s memory limit = %d", f.Name, f.MemoryLimit)
		}
		if f.CPUShares != shares[f.Name] {
			t.Errorf("%s shares = %v", f.Name, f.CPUShares)
		}
		// Footprint must fit in the limit (otherwise instances OOM).
		if f.AnonBytes+f.FilePrivateBytes >= f.MemoryLimit {
			t.Errorf("%s footprint exceeds its limit", f.Name)
		}
		if f.InitAnonBytes()+f.ExecAnonBytes() != f.AnonBytes {
			t.Errorf("%s anon split inconsistent", f.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("Bert").Name != "Bert" {
		t.Fatal("ByName failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown name")
		}
	}()
	ByName("nope")
}

func newKernel(t *testing.T, blocks int) *guestos.Kernel {
	t.Helper()
	s := sim.NewScheduler()
	vm := vmm.New("vm", s, costmodel.Default(), hostmem.New(0), 4)
	k := guestos.NewKernel(vm, guestos.Config{
		BootBytes:           units.BlockSize,
		MovableBytes:        int64(blocks) * units.BlockSize,
		KernelResidentBytes: 8 * units.MiB,
	})
	k.OnlineAllMovable()
	return k
}

func TestMemhogLifecycle(t *testing.T) {
	k := newKernel(t, 8)
	m := NewMemhog(k, "memhog0", 512*units.MiB)
	if !m.Warmup() {
		t.Fatal("warmup failed")
	}
	if m.Proc.AnonPages() != units.BytesToPages(512*units.MiB) {
		t.Fatalf("resident = %d pages", m.Proc.AnonPages())
	}
	for i := 0; i < 5; i++ {
		if !m.Step() {
			t.Fatalf("churn step %d failed", i)
		}
		if m.Proc.AnonPages() != units.BytesToPages(512*units.MiB) {
			t.Fatalf("footprint drifted to %d pages after step %d", m.Proc.AnonPages(), i)
		}
	}
	freed := m.Kill()
	if freed != units.BytesToPages(512*units.MiB) {
		t.Fatalf("kill freed %d pages", freed)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMemhogChurnScattersFootprint(t *testing.T) {
	// Concurrently churning memhogs interleave their chunks across
	// blocks — the fragmentation that penalizes vanilla unplug (§2.2).
	// Asymmetric churn fractions prevent the pathological two-process
	// oscillation where footprints swap wholesale every iteration.
	k := newKernel(t, 12)
	hogs := []*Memhog{
		NewMemhog(k, "a", 256*units.MiB),
		NewMemhog(k, "b", 256*units.MiB),
		NewMemhog(k, "c", 256*units.MiB),
	}
	hogs[0].ChurnFraction = 0.25
	hogs[1].ChurnFraction = 0.35
	hogs[2].ChurnFraction = 0.15
	for _, h := range hogs {
		if !h.Warmup() {
			t.Fatal("warmup failed")
		}
	}
	for i := 0; i < 9; i++ {
		// Concurrent churn: all release, then all re-touch, so each
		// re-allocation draws from the mixed free pool.
		for _, h := range hogs {
			h.ReleaseChurn()
		}
		for _, h := range hogs {
			if !h.TouchChurn() {
				t.Fatal("churn failed")
			}
		}
	}
	// Count blocks containing pages from more than one process: kill
	// the hogs one at a time and see which blocks each exit empties.
	owners := make([]int, k.Movable.Blocks())
	for _, h := range hogs {
		before := make([]int64, len(owners))
		for b := range owners {
			before[b] = k.Movable.OccupiedInBlock(b)
		}
		h.Kill()
		for b := range owners {
			if k.Movable.OccupiedInBlock(b) < before[b] {
				owners[b]++
			}
		}
	}
	mixed := 0
	for _, n := range owners {
		if n > 1 {
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatal("no interleaved blocks after churn; fragmentation model broken")
	}
}

func TestMemhogOversubscription(t *testing.T) {
	k := newKernel(t, 2)
	m := NewMemhog(k, "big", 512*units.MiB)
	if m.Warmup() {
		t.Fatal("warmup should fail in a 256 MiB zone")
	}
}

// TestLongHaulOutlivesDrainTimeout pins the contract the drain-deadline
// tests rely on: a warm LongHaul invocation is still running when a
// draining host's grace period (costmodel.ReclaimDrainTimeout) expires,
// while every Table-1 profile finishes well inside it.
func TestLongHaulOutlivesDrainTimeout(t *testing.T) {
	lh := LongHaul()
	if lh.WarmExecCPU <= sim.Duration(costmodel.ReclaimDrainTimeout) {
		t.Fatalf("WarmExecCPU %v must exceed drain timeout %v", lh.WarmExecCPU, costmodel.ReclaimDrainTimeout)
	}
	if lh.ExecCPU <= lh.WarmExecCPU {
		t.Fatalf("cold ExecCPU %v must exceed warm %v", lh.ExecCPU, lh.WarmExecCPU)
	}
	if lh.MemoryLimit <= 0 || lh.AnonBytes+lh.FileSharedBytes+lh.FilePrivateBytes > lh.MemoryLimit {
		t.Fatalf("footprint exceeds MemoryLimit %d", lh.MemoryLimit)
	}
	for _, f := range Functions() {
		if f.WarmExecCPU >= sim.Duration(costmodel.ReclaimDrainTimeout) {
			t.Fatalf("Table-1 profile %s warm exec %v breaks the drain-settles tests", f.Name, f.WarmExecCPU)
		}
	}
}
