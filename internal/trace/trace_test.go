package trace

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"squeezy/internal/sim"
)

func TestGenBurstyDeterministic(t *testing.T) {
	cfg := BurstyConfig{
		Duration: 5 * sim.Minute, BaseRPS: 0.5, BurstRPS: 20,
		BurstLen: 10 * sim.Second, BurstGap: 30 * sim.Second,
	}
	a := collect(NewBursty(42, cfg))
	b := collect(NewBursty(42, cfg))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
	c := collect(NewBursty(43, cfg))
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds yield identical traces")
		}
	}
}

func TestGenBurstySortedAndBounded(t *testing.T) {
	times := collect(NewBursty(7, BurstyConfig{
		Duration: 10 * sim.Minute, BaseRPS: 1, BurstRPS: 50,
		BurstLen: 20 * sim.Second, BurstGap: 60 * sim.Second,
	}))
	if len(times) == 0 {
		t.Fatal("empty trace")
	}
	end := sim.Time(10 * sim.Minute)
	for i, ts := range times {
		if ts < 0 || ts >= end {
			t.Fatalf("invocation %d at %v outside [0,%v)", i, ts, end)
		}
		if i > 0 && ts < times[i-1] {
			t.Fatalf("trace not sorted at %d", i)
		}
	}
}

func TestBurstinessShape(t *testing.T) {
	// Bursty traces must have per-10s rate spikes well above the base.
	times := collect(NewBursty(11, BurstyConfig{
		Duration: 20 * sim.Minute, BaseRPS: 0.2, BurstRPS: 30,
		BurstLen: 15 * sim.Second, BurstGap: 60 * sim.Second,
	}))
	buckets := make([]int, 20*6)
	for _, ts := range times {
		buckets[int(sim.Duration(ts)/(10*sim.Second))]++
	}
	maxB, quiet := 0, 0
	for _, b := range buckets {
		if b > maxB {
			maxB = b
		}
		if b <= 4 {
			quiet++
		}
	}
	if maxB < 50 {
		t.Fatalf("no burst found: max 10s bucket = %d", maxB)
	}
	if quiet < len(buckets)/4 {
		t.Fatalf("no quiet periods: %d of %d buckets quiet", quiet, len(buckets))
	}
}

// TestMerge: NewMerged interleaves its sources by time, and both it
// and the sort-based reference tag each invocation with its source.
func TestMerge(t *testing.T) {
	want := []TaggedInvocation{{T: 10, Func: 0}, {T: 20, Func: 1}, {T: 30, Func: 0}}
	if m := refMerge([][]sim.Time{{10, 30}, {20}}); !slices.Equal(m, want) {
		t.Fatalf("reference merge wrong: %+v", m)
	}
	if m := drain(NewMerged([]Stream{funcOf(0, 10, 30), funcOf(1, 20)})); !slices.Equal(m, want) {
		t.Fatalf("merge wrong: %+v", m)
	}
}

// sliceStream replays a fixed list of invocation times of one
// function.
type sliceStream struct {
	fn    int
	times []sim.Time
}

func streamOf(times ...sim.Time) *sliceStream { return &sliceStream{times: times} }

func funcOf(fn int, times ...sim.Time) *sliceStream { return &sliceStream{fn: fn, times: times} }

func (s *sliceStream) Next() (TaggedInvocation, bool) {
	if len(s.times) == 0 {
		return TaggedInvocation{}, false
	}
	t := s.times[0]
	s.times = s.times[1:]
	return TaggedInvocation{T: t, Func: s.fn}, true
}

// collect drains a stream's times, discarding function tags.
func collect(s Stream) []sim.Time {
	var times []sim.Time
	for {
		inv, ok := s.Next()
		if !ok {
			return times
		}
		times = append(times, inv.T)
	}
}

// collectAll drains each cursor's times, one slice per function.
func collectAll(cursors []*Bursty) [][]sim.Time {
	traces := make([][]sim.Time, len(cursors))
	for i, c := range cursors {
		traces[i] = collect(c)
	}
	return traces
}

// collectTopTen drains the ten top-ten streams, one slice per rank.
func collectTopTen(seed uint64, duration sim.Duration) [][]sim.Time {
	traces := make([][]sim.Time, 10)
	for i := range traces {
		traces[i] = collect(TopTenStream(seed, duration, i))
	}
	return traces
}

// refMerge is the sort-based merger NewMerged replaced, kept as a
// differential reference: every trace's invocations tagged with its
// index, stably sorted by time, so ties break by function.
func refMerge(traces [][]sim.Time) []TaggedInvocation {
	var out []TaggedInvocation
	for fi, times := range traces {
		for _, t := range times {
			out = append(out, TaggedInvocation{T: t, Func: fi})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// refPeakConcurrency is the sort-based PeakConcurrency, kept as a
// differential reference: +1 at every start and -1 at every finish,
// swept in time order with finishes before same-instant starts.
func refPeakConcurrency(times []sim.Time, execTime sim.Duration) int {
	type ev struct {
		t     sim.Time
		delta int
	}
	evs := make([]ev, 0, 2*len(times))
	for _, t := range times {
		evs = append(evs, ev{t, +1}, ev{t.Add(execTime), -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak
}

func TestInstanceChurnReuse(t *testing.T) {
	// Two invocations 1s apart with 100ms exec: the second reuses the
	// idle instance.
	pts := InstanceChurn(streamOf(0, sim.Time(sim.Second)), 100*sim.Millisecond, 5*sim.Minute, sim.Duration(sim.Minute))
	creations := 0
	for _, p := range pts {
		creations += p.Creations
	}
	if creations != 1 {
		t.Fatalf("creations = %d, want 1 (reuse)", creations)
	}
}

func TestInstanceChurnConcurrent(t *testing.T) {
	// Two simultaneous invocations need two instances.
	pts := InstanceChurn(streamOf(0, 0), sim.Second, 5*sim.Minute, sim.Duration(sim.Minute))
	if pts[0].Creations != 2 {
		t.Fatalf("creations = %d, want 2", pts[0].Creations)
	}
}

func TestInstanceChurnEviction(t *testing.T) {
	pts := InstanceChurn(streamOf(0), sim.Second, sim.Duration(2*sim.Minute), sim.Duration(10*sim.Minute))
	evictions, evMinute := 0, -1
	for _, p := range pts {
		if p.Evictions > 0 {
			evictions += p.Evictions
			evMinute = p.Minute
		}
	}
	if evictions != 1 {
		t.Fatalf("evictions = %d", evictions)
	}
	// Idle from t=1s, keep-alive 2min: eviction lands in minute 2.
	if evMinute != 2 {
		t.Fatalf("eviction minute = %d, want 2", evMinute)
	}
}

func TestCreationsAndEvictionsBalance(t *testing.T) {
	pts := InstanceChurn(NewBursty(3, BurstyConfig{
		Duration: 10 * sim.Minute, BaseRPS: 0.5, BurstRPS: 25,
		BurstLen: 10 * sim.Second, BurstGap: 45 * sim.Second,
	}), 500*sim.Millisecond, sim.Duration(2*sim.Minute), sim.Duration(10*sim.Minute))
	var created, evicted int
	for _, p := range pts {
		created += p.Creations
		evicted += p.Evictions
	}
	if created == 0 {
		t.Fatal("no creations")
	}
	// Evictions within the window never exceed creations, and the
	// early-burst instances (idle > keep-alive before the window ends)
	// must show up as evictions.
	if evicted == 0 || evicted > created {
		t.Fatalf("created %d, evicted %d", created, evicted)
	}
}

func TestGenTopTenScale(t *testing.T) {
	traces := collectTopTen(1, sim.Duration(2*sim.Minute))
	if len(traces) != 10 {
		t.Fatalf("traces = %d", len(traces))
	}
	// Rank 1 must be busier than rank 10.
	if len(traces[0]) <= len(traces[9]) {
		t.Fatalf("popularity not decaying: rank1=%d rank10=%d", len(traces[0]), len(traces[9]))
	}
}

func TestPeakConcurrency(t *testing.T) {
	times := []sim.Time{0, 10, 20, 1000}
	// exec 100ns: first three overlap.
	if got := PeakConcurrency(streamOf(times...), 100); got != 3 {
		t.Fatalf("peak = %d, want 3", got)
	}
	if got := PeakConcurrency(streamOf(times...), 5); got != 1 {
		t.Fatalf("peak = %d, want 1", got)
	}
	// exec 10ns: each instance finishes exactly as the next arrives,
	// and frees up first.
	if got, want := PeakConcurrency(streamOf(times...), 10), refPeakConcurrency(times, 10); got != 1 || want != 1 {
		t.Fatalf("peak = %d, reference %d, want 1", got, want)
	}
}

func TestGenFleetZipfShape(t *testing.T) {
	cfg := FleetConfig{
		Funcs: 50, Duration: 5 * sim.Minute,
		TotalBaseRPS: 10, TotalBurstRPS: 60,
	}
	traces := collectAll(FleetCursors(3, cfg))
	if len(traces) != 50 {
		t.Fatalf("fleet size = %d", len(traces))
	}
	// Popularity must decay: the head rank dominates the mid-tail.
	if len(traces[0]) <= len(traces[25]) {
		t.Fatalf("rank 0 (%d) not hotter than rank 25 (%d)", len(traces[0]), len(traces[25]))
	}
	// The tail still gets some traffic over 5 minutes.
	total := 0
	for _, tr := range traces {
		total += len(tr)
	}
	if total == 0 {
		t.Fatal("empty fleet trace")
	}
	// Determinism: same seed, same fleet.
	again := collectAll(FleetCursors(3, cfg))
	for i := range traces {
		if len(traces[i]) != len(again[i]) {
			t.Fatalf("func %d not deterministic", i)
		}
	}
	// Seed sensitivity.
	other := collectAll(FleetCursors(4, cfg))
	same := true
	for i := range traces {
		if len(traces[i]) != len(other[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fleets")
	}
}

func TestGenFleetEmptyAndDefaults(t *testing.T) {
	if FleetCursors(1, FleetConfig{}) != nil {
		t.Fatal("zero functions must yield nil")
	}
	// Defaults (ZipfS, burst shape) must not panic and must honor the
	// aggregate rate roughly.
	total := len(drain(NewFleetStream(1, FleetConfig{Funcs: 4, Duration: sim.Minute, TotalBaseRPS: 12, TotalBurstRPS: 12})))
	// ~12 rps for 60 s = ~720 invocations; allow wide tolerance.
	if total < 360 || total > 1440 {
		t.Fatalf("aggregate invocations = %d, want ~720", total)
	}
}

// refInstanceChurn is the binary-search pool InstanceChurn replaced,
// kept as a differential reference: one slice sorted by freeAt, reuse
// removing the last entry free by now from the middle of it.
func refInstanceChurn(times []sim.Time, execTime, keepAlive sim.Duration, duration sim.Duration) []ChurnPoint {
	minutes := int((duration + sim.Minute - 1) / sim.Minute)
	points := make([]ChurnPoint, minutes)
	for i := range points {
		points[i].Minute = i
	}
	type inst struct{ freeAt sim.Time }
	var idle []inst // idle[head:] is the live pool, sorted by freeAt
	head := 0

	evictBefore := func(now sim.Time) {
		for head < len(idle) {
			expiry := idle[head].freeAt.Add(keepAlive)
			if expiry > now {
				break
			}
			m := int(sim.Duration(expiry) / sim.Minute)
			if m >= 0 && m < minutes {
				points[m].Evictions++
			}
			head++
		}
		if head > len(idle)/2 {
			idle = append(idle[:0], idle[head:]...)
			head = 0
		}
	}

	for _, t := range times {
		evictBefore(t)
		m := int(sim.Duration(t) / sim.Minute)
		if m >= minutes {
			break
		}
		lo, hi := head, len(idle)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if idle[mid].freeAt <= t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > head {
			idle = append(idle[:lo-1], idle[lo:]...)
		} else {
			points[m].Creations++
		}
		idle = append(idle, inst{freeAt: t.Add(execTime)})
	}
	evictBefore(sim.Time(duration + sim.Duration(keepAlive)))
	return points
}

// checkChurnMatches replays times through InstanceChurn and the
// reference and reports the first minute where they differ, then
// checks PeakConcurrency against its reference when execTime meets
// its precondition (> 0).
func checkChurnMatches(t *testing.T, name string, times []sim.Time, execTime, keepAlive, duration sim.Duration) {
	t.Helper()
	if execTime > 0 {
		if got, want := PeakConcurrency(streamOf(times...), execTime), refPeakConcurrency(times, execTime); got != want {
			t.Fatalf("%s (exec %v, %d invocations): peak concurrency %d, reference %d",
				name, execTime, len(times), got, want)
		}
	}
	got := InstanceChurn(streamOf(times...), execTime, keepAlive, duration)
	want := refInstanceChurn(times, execTime, keepAlive, duration)
	if len(got) != len(want) {
		t.Fatalf("%s: %d minutes, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s (exec %v, keep-alive %v, duration %v, %d invocations): minute %d is %+v, reference %+v",
				name, execTime, keepAlive, duration, len(times), i, got[i], want[i])
		}
	}
}

// TestInstanceChurnMatchesReference replays seeded bursty streams
// through InstanceChurn and the binary-search reference. Times are
// rounded to a coarse grain so invocations tie, keep-alives range
// from shorter than the quiet gaps to longer than a burst, execution
// times from far below to above the keep-alive, and the streams run
// past the replay's duration.
func TestInstanceChurnMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 0xc8))
	for round := 0; round < 200; round++ {
		cfg := BurstyConfig{
			Duration: sim.Duration(1+rng.IntN(12)) * sim.Minute,
			BaseRPS:  rng.Float64() * 2,
			BurstRPS: rng.Float64() * 120,
			BurstLen: sim.Duration(1+rng.IntN(30)) * sim.Second,
			BurstGap: sim.Duration(1+rng.IntN(120)) * sim.Second,
		}
		grain := []sim.Duration{sim.Microsecond, sim.Millisecond, 100 * sim.Millisecond, sim.Second}[rng.IntN(4)]
		var times []sim.Time
		for _, ts := range collect(NewBursty(rng.Uint64(), cfg)) {
			times = append(times, ts/sim.Time(grain)*sim.Time(grain))
		}
		keepAlive := sim.Duration(rng.Int64N(int64(3 * sim.Minute)))
		execTime := sim.Duration(rng.Int64N(int64(2 * sim.Second)))
		if round%4 == 0 {
			execTime = keepAlive + sim.Duration(rng.Int64N(int64(sim.Minute)))
		}
		duration := cfg.Duration - sim.Duration(rng.Int64N(int64(cfg.Duration)))
		checkChurnMatches(t, fmt.Sprintf("round %d", round), times, execTime, keepAlive, duration)
	}
}

// FuzzInstanceChurn decodes a replay from bytes — execution time,
// keep-alive and duration from the first three, then one gap per byte,
// a zero byte tying two invocations — and checks InstanceChurn against
// the reference.
func FuzzInstanceChurn(f *testing.F) {
	const grain = 250 * sim.Millisecond
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		execTime := sim.Duration(data[0]) * grain
		keepAlive := sim.Duration(data[1]) * grain
		duration := sim.Duration(1+data[2]%10) * sim.Minute
		var times []sim.Time
		var now sim.Time
		for _, b := range data[3:] {
			now = now.Add(sim.Duration(b) * grain)
			times = append(times, now)
		}
		checkChurnMatches(t, "fuzz", times, execTime, keepAlive, duration)
	})
}
