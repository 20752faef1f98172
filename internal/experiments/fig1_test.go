package experiments

import "testing"

func TestFig1Shape(t *testing.T) {
	res := Fig1Plan(Options{Quick: true}).runSerial(newWorld()).(*Fig1Result)
	if res.Guest.Len() == 0 || res.HostUsage.Len() == 0 {
		t.Fatal("empty series")
	}
	// Instances scale up with the burst and back down after keep-alive.
	if res.Instances.Max() < 3 {
		t.Fatalf("peak instances = %v, burst did not scale up", res.Instances.Max())
	}
	finalInstances := last(res.Instances.Values)
	if finalInstances >= res.Instances.Max() {
		t.Fatal("instances never scaled down")
	}
	// Guest memory follows the evictions down...
	guestDrop := res.Guest.Max() - last(res.Guest.Values)
	if guestDrop <= 0 {
		t.Fatal("guest memory never dropped after evictions")
	}
	// ...but host populated memory never shrinks (the Figure 1 claim).
	if last(r0(res.HostUsage.Values)) < res.HostUsage.Max()*0.999 {
		t.Fatalf("host memory shrank: peak %v final %v", res.HostUsage.Max(), last(res.HostUsage.Values))
	}
}

func r0(v []float64) []float64 { return v }

func TestFig2Shape(t *testing.T) {
	res := Fig2Plan(Options{Quick: true}).runSerial(newWorld()).(*Fig2Result)
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// Hundreds-to-thousands of creations per minute across the top-10
	// functions.
	if res.PeakCreations() < 100 {
		t.Fatalf("peak creations/min = %d, want bursty churn", res.PeakCreations())
	}
	if res.PeakEvictions() <= 0 {
		t.Fatal("no evictions observed")
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
}

func TestFig8Shape(t *testing.T) {
	res := Fig8Plan(Options{Quick: true}).runSerial(newWorld()).(*Fig8Result)
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ReclaimOps == 0 {
			t.Fatalf("%s/%s had no reclamations", row.Fn, row.Method)
		}
		if row.ThroughputMiBs <= 0 {
			t.Fatalf("%s/%s throughput = %v", row.Fn, row.Method, row.ThroughputMiBs)
		}
	}
	// Squeezy beats virtio-mem for every function, and by a large
	// geomean factor (§6.2.1 reports ≈7x).
	for _, fn := range []string{"Cnn", "Bert", "BFS", "HTML"} {
		if res.Throughput(fn, "squeezy") <= res.Throughput(fn, "virtio-mem") {
			t.Fatalf("%s: squeezy not faster", fn)
		}
	}
	ratio := res.Geomean("squeezy") / res.Geomean("virtio-mem")
	if ratio < 3 {
		t.Fatalf("geomean speedup = %.1fx, want >= 3x", ratio)
	}
}
