package experiments

import "testing"

func TestFig6Shape(t *testing.T) {
	res := Fig6Plan(Options{Quick: true}).runSerial(newWorld()).(*Fig6Result)
	var vmemLow, vmemHigh, sqMin, sqMax float64
	for _, p := range res.Points {
		switch p.Method {
		case "virtio-mem":
			if p.UtilizationPct == 0 {
				vmemLow = p.LatencyMs
			}
			if p.UtilizationPct == 90 {
				vmemHigh = p.LatencyMs
			}
		case "squeezy":
			if sqMin == 0 || p.LatencyMs < sqMin {
				sqMin = p.LatencyMs
			}
			if p.LatencyMs > sqMax {
				sqMax = p.LatencyMs
			}
		}
	}
	// Vanilla climbs with utilization (migrations); Squeezy is flat.
	if vmemHigh <= vmemLow*2 {
		t.Fatalf("virtio-mem latency not climbing: %v -> %v", vmemLow, vmemHigh)
	}
	if sqMax > sqMin*1.2 {
		t.Fatalf("squeezy latency not flat: min %v, max %v", sqMin, sqMax)
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
}

func TestFig6SqueezyAbsolute(t *testing.T) {
	if testing.Short() {
		t.Skip("full 64 GiB VM")
	}
	// Full-size anchor: Squeezy reclaims 2 GiB in ~125 ms regardless of
	// utilization (§6.1.1).
	res := Fig6Plan(Options{}).runSerial(newWorld()).(*Fig6Result)
	for _, p := range res.Points {
		if p.Method != "squeezy" {
			continue
		}
		if p.LatencyMs < 100 || p.LatencyMs > 160 {
			t.Fatalf("squeezy at %d%% = %.0fms, outside the ~125ms band", p.UtilizationPct, p.LatencyMs)
		}
	}
}
