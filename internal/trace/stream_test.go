package trace

import (
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"squeezy/internal/sim"
)

// fpTimes folds times into an FNV-1a fingerprint (little-endian int64s).
func fpTimes(h interface{ Write([]byte) (int, error) }, ts []sim.Time) {
	var buf [8]byte
	for _, t := range ts {
		v := uint64(t)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
}

func fpTrace(tr *Trace) uint64 {
	h := fnv.New64a()
	fpTimes(h, tr.Times)
	return h.Sum64()
}

func fpTraces(trs []*Trace) uint64 {
	h := fnv.New64a()
	for _, tr := range trs {
		fpTimes(h, tr.Times)
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

func fpTagged(m []TaggedInvocation) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, ti := range m {
		for _, v := range []uint64{uint64(ti.T), uint64(ti.Func)} {
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func drain(s Stream) []TaggedInvocation {
	var out []TaggedInvocation
	for {
		inv, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, inv)
	}
}

// Golden fingerprints computed from the PRE-streaming generators (the
// materialize-everything code this PR replaced), for a fixed grid of
// seeds x configs. The streaming collectors must reproduce them bit for
// bit: these constants are the proof that the cursor refactor changed
// nothing.
var goldenBursty = map[[2]uint64]uint64{
	{0, 1}: 0xc78b7ec6b305fb93, {0, 2}: 0x9b6e634ee59cc523, {0, 3}: 0x02ef9fa270493508, {0, 42}: 0x8adad739e35d684d,
	{1, 1}: 0x1b18d5a22e03b50e, {1, 2}: 0x93670ac683ae3292, {1, 3}: 0x2b4a97ebe350c2be, {1, 42}: 0x3f80c5d93fa411e9,
	{2, 1}: 0xef158c54b6b20a2d, {2, 2}: 0xa061b2ea8fe76146, {2, 3}: 0x6f391e13a5f7e09b, {2, 42}: 0xc5318279621577f4,
	{3, 1}: 0x482f4b607afc5045, {3, 2}: 0xd6ada710da3854ff, {3, 3}: 0x81a5d45d6e149cf7, {3, 42}: 0x1fb91d56f50900ba,
}

var goldenFleet = map[[2]uint64]uint64{
	{0, 1}: 0x15dc490be6ec2de7, {0, 7}: 0xd2a9ab4e92a13a32,
	{1, 1}: 0xc5c6780e17c486fc, {1, 7}: 0x63add4a8045e1b86,
	{2, 1}: 0x51ab305151ae5b8c, {2, 7}: 0x6eb493615f399bee,
}

var goldenTopTen = map[[2]uint64]uint64{
	{1, 2}: 0x048529822e8fb0a0, {1, 5}: 0xe63d147c9c57ed63,
	{5, 2}: 0x3c24c3a3a01b6bed, {5, 5}: 0x2f4d82772fc5b27d,
}

const goldenMergedFleet0Seed3 uint64 = 0xa5c6954e4a5de119

func goldenBurstyConfigs() []BurstyConfig {
	return []BurstyConfig{
		{Duration: 5 * sim.Minute, BaseRPS: 0.5, BurstRPS: 20, BurstLen: 10 * sim.Second, BurstGap: 30 * sim.Second},
		{Duration: 10 * sim.Minute, BaseRPS: 1, BurstRPS: 50, BurstLen: 20 * sim.Second, BurstGap: 60 * sim.Second},
		{Duration: 2 * sim.Minute, BaseRPS: 0, BurstRPS: 40, BurstLen: 5 * sim.Second, BurstGap: 15 * sim.Second},
		{Duration: sim.Minute, BaseRPS: 3, BurstRPS: 3, BurstLen: 10 * sim.Second, BurstGap: 10 * sim.Second},
	}
}

func goldenFleetConfigs() []FleetConfig {
	return []FleetConfig{
		{Funcs: 50, Duration: 5 * sim.Minute, TotalBaseRPS: 10, TotalBurstRPS: 60},
		{Funcs: 4, Duration: sim.Minute, TotalBaseRPS: 12, TotalBurstRPS: 12},
		{Funcs: 12, Duration: 3 * sim.Minute, TotalBaseRPS: 6, TotalBurstRPS: 30, ZipfS: 1.4, BurstLen: 10 * sim.Second, BurstGap: 20 * sim.Second},
	}
}

// TestGoldenFingerprints pins the streaming generators to the exact
// output of the pre-refactor materialized generators.
func TestGoldenFingerprints(t *testing.T) {
	for ci, cfg := range goldenBurstyConfigs() {
		for _, seed := range []uint64{1, 2, 3, 42} {
			if got, want := fpTrace(GenBursty(seed, cfg)), goldenBursty[[2]uint64{uint64(ci), seed}]; got != want {
				t.Errorf("GenBursty cfg=%d seed=%d fingerprint %#016x, golden %#016x", ci, seed, got, want)
			}
		}
	}
	for ci, cfg := range goldenFleetConfigs() {
		for _, seed := range []uint64{1, 7} {
			if got, want := fpTraces(GenFleet(seed, cfg)), goldenFleet[[2]uint64{uint64(ci), seed}]; got != want {
				t.Errorf("GenFleet cfg=%d seed=%d fingerprint %#016x, golden %#016x", ci, seed, got, want)
			}
		}
	}
	for _, seed := range []uint64{1, 5} {
		for _, mins := range []uint64{2, 5} {
			got := fpTraces(collectTopTen(seed, sim.Duration(mins)*sim.Minute))
			if want := goldenTopTen[[2]uint64{seed, mins}]; got != want {
				t.Errorf("TopTenStream seed=%d dur=%dm fingerprint %#016x, golden %#016x", seed, mins, got, want)
			}
		}
	}
	m := Merge(GenFleet(3, goldenFleetConfigs()[0]))
	if got := fpTagged(m); got != goldenMergedFleet0Seed3 {
		t.Errorf("Merge(GenFleet) fingerprint %#016x, golden %#016x", got, goldenMergedFleet0Seed3)
	}
}

// TestStreamMatchesMaterialized fuzzes seeds x configs and checks that
// draining the cursor yields exactly the collected trace, and that the
// merged fleet stream yields exactly Merge(GenFleet(...)) — same times,
// same function tags, same order.
func TestStreamMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 0xf022))
	for round := 0; round < 30; round++ {
		seed := rng.Uint64()
		bc := BurstyConfig{
			Duration: sim.Duration(1+rng.IntN(10)) * sim.Minute,
			BaseRPS:  rng.Float64() * 5,
			BurstRPS: rng.Float64() * 80,
			BurstLen: sim.Duration(1+rng.IntN(30)) * sim.Second,
			BurstGap: sim.Duration(1+rng.IntN(90)) * sim.Second,
		}
		if round%5 == 0 {
			bc.Modulation = []DiurnalConfig{
				{Period: sim.Duration(1+rng.IntN(5)) * sim.Minute, Amplitude: rng.Float64() * 0.9, Phase: rng.Float64() * 6.28},
			}
		}
		tr := GenBursty(seed, bc)
		streamed := drain(NewBursty(seed, bc))
		if len(streamed) != tr.Len() {
			t.Fatalf("round %d: stream yields %d, materialized %d", round, len(streamed), tr.Len())
		}
		for i, inv := range streamed {
			if inv.T != tr.Times[i] {
				t.Fatalf("round %d: stream diverges at %d: %d vs %d", round, i, inv.T, tr.Times[i])
			}
		}

		fc := FleetConfig{
			Funcs:         1 + rng.IntN(24),
			Duration:      sim.Duration(1+rng.IntN(5)) * sim.Minute,
			ZipfS:         0.8 + rng.Float64(),
			TotalBaseRPS:  rng.Float64() * 10,
			TotalBurstRPS: rng.Float64() * 50,
			Modulation:    bc.Modulation,
		}
		merged := Merge(GenFleet(seed, fc))
		streamedFleet := drain(NewFleetStream(seed, fc))
		if len(streamedFleet) != len(merged) {
			t.Fatalf("round %d: fleet stream yields %d, merged %d", round, len(streamedFleet), len(merged))
		}
		for i := range merged {
			if streamedFleet[i] != merged[i] {
				t.Fatalf("round %d: fleet stream diverges at %d: %+v vs %+v", round, i, streamedFleet[i], merged[i])
			}
		}
	}
}

// TestTopTenStreamMatches checks the merged top-ten stream against
// the ten rank streams collected and merged.
func TestTopTenStreamMatches(t *testing.T) {
	for _, seed := range []uint64{1, 9} {
		merged := Merge(collectTopTen(seed, 2*sim.Minute))
		streamed := drain(NewTopTenStream(seed, 2*sim.Minute))
		if len(streamed) != len(merged) {
			t.Fatalf("seed %d: %d streamed vs %d merged", seed, len(streamed), len(merged))
		}
		for i := range merged {
			if streamed[i] != merged[i] {
				t.Fatalf("seed %d: diverges at %d", seed, i)
			}
		}
	}
}

// TestDiurnalModulationShape checks that a 24h-period modulation layer
// actually moves load between peak and trough halves of the cycle, that
// an explicit zero-amplitude layer is byte-identical to no modulation,
// and that weekly layering composes.
func TestDiurnalModulationShape(t *testing.T) {
	day := 24 * sim.Hour
	base := BurstyConfig{
		Duration: 2 * sim.Duration(day), BaseRPS: 0.2, BurstRPS: 0.2,
		BurstLen: 20 * sim.Second, BurstGap: 45 * sim.Second,
	}
	mod := base
	// sin peaks in the first half-day and troughs in the second.
	mod.Modulation = []DiurnalConfig{{Period: day, Amplitude: 0.8}}
	tr := GenBursty(5, mod)
	var peak, trough int
	for _, ts := range tr.Times {
		phase := sim.Duration(ts) % day
		if phase < day/2 {
			peak++
		} else {
			trough++
		}
	}
	if peak < 2*trough {
		t.Fatalf("diurnal peak not dominant: peak=%d trough=%d", peak, trough)
	}

	zero := base
	zero.Modulation = []DiurnalConfig{{Period: day, Amplitude: 0}}
	plain, flat := GenBursty(5, base), GenBursty(5, zero)
	if plain.Len() != flat.Len() {
		t.Fatalf("zero-amplitude modulation changed the trace: %d vs %d", plain.Len(), flat.Len())
	}
	for i := range plain.Times {
		if plain.Times[i] != flat.Times[i] {
			t.Fatalf("zero-amplitude modulation diverges at %d", i)
		}
	}

	weekly := mod
	weekly.Modulation = append(append([]DiurnalConfig(nil), mod.Modulation...),
		DiurnalConfig{Period: 7 * sim.Duration(day), Amplitude: 0.3})
	wtr := GenBursty(5, weekly)
	if wtr.Len() == 0 || wtr.Len() == tr.Len() {
		t.Fatalf("weekly layer had no effect: %d vs %d", wtr.Len(), tr.Len())
	}
}

// TestModulationBoundedBelow: a deep trough (amplitude ~1) must slow
// the generator, not stall it — times keep strictly increasing and the
// stream terminates.
func TestModulationBoundedBelow(t *testing.T) {
	tr := GenBursty(3, BurstyConfig{
		Duration: 30 * sim.Minute, BaseRPS: 1, BurstRPS: 10,
		BurstLen: 20 * sim.Second, BurstGap: 45 * sim.Second,
		Modulation: []DiurnalConfig{{Period: sim.Hour, Amplitude: 0.999}},
	})
	for i := 1; i < len(tr.Times); i++ {
		if tr.Times[i] <= tr.Times[i-1] {
			t.Fatalf("times not strictly increasing at %d", i)
		}
	}
}

// TestFleetStreamFuncs: the merger exposes its source count.
func TestFleetStreamFuncs(t *testing.T) {
	fs := NewFleetStream(1, FleetConfig{Funcs: 7, Duration: sim.Minute, TotalBaseRPS: 1, TotalBurstRPS: 5})
	if fs.Funcs() != 7 {
		t.Fatalf("Funcs() = %d, want 7", fs.Funcs())
	}
	if got := drain(NewFleetStream(1, FleetConfig{})); len(got) != 0 {
		t.Fatalf("empty fleet stream yields %d invocations", len(got))
	}
}
