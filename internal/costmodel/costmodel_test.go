package costmodel

import (
	"testing"

	"squeezy/internal/sim"
)

func TestDefaultAnchors(t *testing.T) {
	m := Default()
	// Balloon per-page total ≈ 11 µs, exits ≈ 81% of it (§6.1.1).
	perPage := m.VMExitPerPage + m.BalloonGuestPerPage
	if perPage < 9*sim.Microsecond || perPage > 13*sim.Microsecond {
		t.Fatalf("balloon per-page = %v", perPage)
	}
	frac := float64(m.VMExitPerPage) / float64(perPage)
	if frac < 0.75 || frac > 0.87 {
		t.Fatalf("balloon exit fraction = %.2f, want ~0.81", frac)
	}
	// Squeezy per-block ≈ 7.9 ms -> 2 GiB (16 blocks) ≈ 127 ms.
	perBlock := m.VMExitPerBlock + m.OfflineMetaPerBlockSqueezy
	total2GiB := 16 * perBlock
	if total2GiB < 110*sim.Millisecond || total2GiB > 145*sim.Millisecond {
		t.Fatalf("squeezy 2GiB = %v, want ~127ms", total2GiB)
	}
	// §8: VM exit per 128 MiB chunk ≈ 3 ms.
	if m.VMExitPerBlock != 3*sim.Millisecond {
		t.Fatalf("VMExitPerBlock = %v", m.VMExitPerBlock)
	}
	if !m.ZeroOnUnplug {
		t.Fatal("hardened kernels zero on alloc by default")
	}
	if m.BatchUnplugExits {
		t.Fatal("batching is a future-work ablation, off by default")
	}
}
