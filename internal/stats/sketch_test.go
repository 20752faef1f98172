package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// rankError returns the estimate's rank error versus the exact sorted
// sample: the distance (as a rank fraction) between the target
// quantile and the closest rank the estimate actually occupies.
func rankError(exact []float64, estimate, q float64) float64 {
	lo := sort.SearchFloat64s(exact, estimate)
	hi := sort.Search(len(exact), func(i int) bool { return exact[i] > estimate })
	// The estimate occupies ranks [lo, hi); take the closest edge to q.
	n := float64(len(exact) - 1)
	if n <= 0 {
		return 0
	}
	rLo, rHi := float64(lo)/n, float64(hi-1)/n
	errLo, errHi := math.Abs(rLo-q), math.Abs(rHi-q)
	if errLo < errHi {
		return errLo
	}
	return errHi
}

// TestSketchAccuracy: for fuzzed uniform, Zipf-heavy-tail, and bimodal
// distributions, the reservoir's P50/P99/P999 fall within the
// documented DKW rank-error bound of the exact percentiles.
func TestSketchAccuracy(t *testing.T) {
	const k = 4096
	bound := RankErrorBound(k)
	draws := []struct {
		name string
		gen  func(rng *rand.Rand) float64
	}{
		{"uniform", func(rng *rand.Rand) float64 { return rng.Float64() * 1000 }},
		{"zipf-heavy-tail", func(rng *rand.Rand) float64 {
			// Pareto-like: most mass near 1 ms, a long latency tail.
			return 1 / math.Pow(1-rng.Float64(), 1.3)
		}},
		{"bimodal", func(rng *rand.Rand) float64 {
			// Warm hits near 2, cold starts near 300 — the fleet's
			// actual latency shape.
			if rng.IntN(10) == 0 {
				return 300 + rng.Float64()*50
			}
			return 2 + rng.Float64()
		}},
	}
	for _, d := range draws {
		for _, seed := range []uint64{1, 2, 3} {
			rng := rand.New(rand.NewPCG(seed, 0xd157))
			var exactS, sketchS Sample
			sketchS.EnableSketch(SketchConfig{K: k, Seed: seed, Stream: 7})
			n := 100000
			exact := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				v := d.gen(rng)
				exactS.Add(v)
				sketchS.Add(v)
				exact = append(exact, v)
			}
			sort.Float64s(exact)
			if sketchS.N() != n || sketchS.Sum() != exactS.Sum() ||
				sketchS.Min() != exactS.Min() || sketchS.Max() != exactS.Max() {
				t.Fatalf("%s seed %d: sketch moments not exact", d.name, seed)
			}
			for _, q := range []float64{0.50, 0.99, 0.999} {
				got := sketchS.Percentile(q * 100)
				if re := rankError(exact, got, q); re > bound {
					t.Errorf("%s seed %d: P%g rank error %.5f exceeds bound %.5f (got %v, exact %v)",
						d.name, seed, q*100, re, bound, got, exactS.Percentile(q*100))
				}
			}
			// Stddev from moments must be close to the two-pass value.
			if es, ss := exactS.Stddev(), sketchS.Stddev(); math.Abs(es-ss) > 1e-6*math.Max(1, es) {
				t.Errorf("%s seed %d: sketch stddev %v vs exact %v", d.name, seed, ss, es)
			}
		}
	}
}

// TestSketchMergeOrderInvariance: merging per-host sketches in any
// order yields a byte-identical reservoir (fingerprint equality) and
// identical percentile answers — the property the cluster's
// host-order metric merge relies on.
func TestSketchMergeOrderInvariance(t *testing.T) {
	const hosts = 8
	build := func() []*Sample {
		out := make([]*Sample, hosts)
		for h := range out {
			s := &Sample{}
			s.EnableSketch(SketchConfig{K: 512, Seed: 42, Stream: uint64(h)})
			rng := rand.New(rand.NewPCG(uint64(h), 99))
			for i := 0; i < 2000+500*h; i++ {
				s.Add(rng.ExpFloat64() * 50)
			}
			out[h] = s
		}
		return out
	}
	mergeIn := func(order []int) *Sample {
		m := &Sample{}
		m.EnableSketch(SketchConfig{K: 512, Seed: 42, Stream: 1 << 60})
		for _, h := range order {
			m.Merge(build()[h])
		}
		return m
	}
	base := mergeIn([]int{0, 1, 2, 3, 4, 5, 6, 7})
	orders := [][]int{
		{7, 6, 5, 4, 3, 2, 1, 0},
		{3, 0, 7, 1, 6, 2, 5, 4},
		{1, 3, 5, 7, 0, 2, 4, 6},
	}
	for _, ord := range orders {
		m := mergeIn(ord)
		if m.SketchFingerprint() != base.SketchFingerprint() {
			t.Fatalf("merge order %v: fingerprint %#x != base %#x", ord, m.SketchFingerprint(), base.SketchFingerprint())
		}
		if m.N() != base.N() || m.P50() != base.P50() || m.P99() != base.P99() || m.P999() != base.P999() ||
			m.Min() != base.Min() || m.Max() != base.Max() {
			t.Fatalf("merge order %v: answers differ from base", ord)
		}
		// Sum accumulates in merge order (float addition), exactly like
		// exact-mode Merge: deterministic for a fixed order, not
		// order-invariant. Only the order statistics carry the stronger
		// guarantee.
		if math.Abs(m.Sum()-base.Sum()) > 1e-9*math.Abs(base.Sum()) {
			t.Fatalf("merge order %v: sum drifted beyond rounding: %v vs %v", ord, m.Sum(), base.Sum())
		}
	}
}

// TestSketchResetVsFresh: a reset sketched sample refilled with the
// same observations is byte-identical to a fresh one — the world-pool
// reuse contract, extended to reservoir mode.
func TestSketchResetVsFresh(t *testing.T) {
	cfg := SketchConfig{K: 256, Seed: 5, Stream: 3}
	feed := func(s *Sample) {
		rng := rand.New(rand.NewPCG(8, 8))
		for i := 0; i < 5000; i++ {
			s.Add(rng.Float64() * 100)
		}
	}
	var fresh Sample
	fresh.EnableSketch(cfg)
	feed(&fresh)

	var pooled Sample
	pooled.EnableSketch(cfg)
	feed(&pooled)
	// Dirty it further, then reset — the pool path.
	pooled.Add(1e9)
	pooled.Reset()
	feed(&pooled)

	if pooled.SketchFingerprint() != fresh.SketchFingerprint() {
		t.Fatalf("reset-then-refill fingerprint %#x != fresh %#x", pooled.SketchFingerprint(), fresh.SketchFingerprint())
	}
	if pooled.N() != fresh.N() || pooled.P99() != fresh.P99() || pooled.Stddev() != fresh.Stddev() {
		t.Fatal("reset-then-refill answers differ from fresh")
	}

	// Re-enabling with a different config on the pooled sample must
	// also behave like fresh.
	cfg2 := SketchConfig{K: 128, Seed: 6, Stream: 9}
	pooled.Reset()
	pooled.EnableSketch(cfg2)
	feed(&pooled)
	var fresh2 Sample
	fresh2.EnableSketch(cfg2)
	feed(&fresh2)
	if pooled.SketchFingerprint() != fresh2.SketchFingerprint() {
		t.Fatal("re-enabled sketch differs from fresh sketch with same config")
	}
}

// TestSketchModeGuards: the mode boundary fails loudly — enabling on a
// non-empty sample, merging across modes, and merging mismatched
// capacities all panic.
func TestSketchModeGuards(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	var dirty Sample
	dirty.Add(1)
	expectPanic("EnableSketch on non-empty", func() { dirty.EnableSketch(SketchConfig{}) })

	var sk, exact Sample
	sk.EnableSketch(SketchConfig{K: 64})
	sk.Add(1)
	exact.Add(2)
	expectPanic("exact.Merge(sketched)", func() { exact.Merge(&sk) })
	expectPanic("sketched.Merge(exact)", func() { sk.Merge(&exact) })

	var sk2 Sample
	sk2.EnableSketch(SketchConfig{K: 128})
	sk2.Add(3)
	expectPanic("capacity mismatch", func() { sk.Merge(&sk2) })

	expectPanic("DisableSketch on non-empty", func() { sk.DisableSketch() })
	expectPanic("Percentile(NaN)", func() { sk.Percentile(math.NaN()) })
}

// TestPercentileBoundaries pins the documented N=0 / N=1 / p=0 / p=100
// behavior in both modes.
func TestPercentileBoundaries(t *testing.T) {
	for _, sketched := range []bool{false, true} {
		var s Sample
		if sketched {
			s.EnableSketch(SketchConfig{K: 16})
		}
		for _, p := range []float64{0, 50, 100} {
			if got := s.Percentile(p); got != 0 {
				t.Fatalf("sketched=%v: empty Percentile(%v) = %v, want 0", sketched, p, got)
			}
		}
		s.Add(7.5)
		for _, p := range []float64{0, 1, 50, 99.9, 100} {
			if got := s.Percentile(p); got != 7.5 {
				t.Fatalf("sketched=%v: N=1 Percentile(%v) = %v, want 7.5", sketched, p, got)
			}
		}
		s.Add(2.5)
		if got := s.Percentile(0); got != 2.5 {
			t.Fatalf("sketched=%v: Percentile(0) = %v, want Min", sketched, got)
		}
		if got := s.Percentile(100); got != 7.5 {
			t.Fatalf("sketched=%v: Percentile(100) = %v, want Max", sketched, got)
		}
		if got := s.Percentile(-5); got != 2.5 {
			t.Fatalf("sketched=%v: Percentile(-5) = %v, want Min", sketched, got)
		}
		if got := s.Percentile(250); got != 7.5 {
			t.Fatalf("sketched=%v: Percentile(250) = %v, want Max", sketched, got)
		}
	}
}

// TestSketchBoundedMemory: the reservoir never grows past K entries no
// matter how many observations stream through.
func TestSketchBoundedMemory(t *testing.T) {
	var s Sample
	s.EnableSketch(SketchConfig{K: 64, Seed: 1})
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 200000; i++ {
		s.Add(rng.Float64())
	}
	if len(s.sk.ents) != 64 {
		t.Fatalf("reservoir holds %d entries, want 64", len(s.sk.ents))
	}
	if s.N() != 200000 {
		t.Fatalf("N = %d", s.N())
	}
	if got := len(s.Values()); got != 64 {
		t.Fatalf("Values() returned %d, want 64", got)
	}
}

// TestPhasedSketch: per-phase sketches file observations exactly like
// exact phases and merge phase-by-phase.
func TestPhasedSketch(t *testing.T) {
	a := NewPhased(10, 20)
	b := NewPhased(10, 20)
	a.EnableSketch(SketchConfig{K: 64, Seed: 2, Stream: 1})
	b.EnableSketch(SketchConfig{K: 64, Seed: 2, Stream: 2})
	for i := 0; i < 100; i++ {
		a.Add(float64(i%30), float64(i))
		b.Add(float64(i%30), float64(i)*2)
	}
	if a.Phase(0).N() == 0 || a.Phase(1).N() == 0 || a.Phase(2).N() == 0 {
		t.Fatal("phased sketch lost observations")
	}
	na := a.Phase(0).N()
	a.Merge(b)
	if a.Phase(0).N() != na+b.Phase(0).N() {
		t.Fatal("phased sketch merge lost observations")
	}
	a.Reset()
	if a.Phase(0).N() != 0 || !a.Phase(0).Sketched() {
		t.Fatal("reset must empty phases but keep sketch mode")
	}
	a.DisableSketch()
	if a.Phase(0).Sketched() {
		t.Fatal("DisableSketch left phases sketched")
	}
}

// TestTimeSeriesReserveMultiDay: Reserve sizes both buffers even when
// their capacities have diverged (the multi-day tick-count fix), and a
// reserved series absorbs a multi-day tick count without reallocating.
func TestTimeSeriesReserveMultiDay(t *testing.T) {
	var ts TimeSeries
	// Force divergent capacities the way pooled buffer swaps can.
	ts.Times = make([]float64, 0, 256)
	ts.Values = make([]float64, 0, 4)
	ts.Reserve(128)
	if cap(ts.Times) < 128 || cap(ts.Values) < 128 {
		t.Fatalf("Reserve left caps %d/%d, want >= 128 both", cap(ts.Times), cap(ts.Values))
	}
	// Two simulated days at 1 s ticks.
	n := 2*24*3600 + 1
	ts.Reset()
	ts.Reserve(n)
	base := &ts.Times[:1][0]
	for i := 0; i < n; i++ {
		ts.Append(float64(i), float64(i%7))
	}
	if ts.Len() != n {
		t.Fatalf("Len = %d, want %d", ts.Len(), n)
	}
	if &ts.Times[0] != base {
		t.Fatal("multi-day append reallocated a reserved series")
	}
}
