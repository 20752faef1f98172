package stats

import (
	"fmt"
	"math"
	"sort"
)

// DefaultSketchK is the reservoir capacity used when SketchConfig.K is
// unset. At K = 4096 the DKW bound puts the estimated quantile within
// ~2 rank points of the exact quantile with 99% confidence (see
// RankErrorBound), which resolves P99 of a million-observation stream
// to a handful of true ranks.
const DefaultSketchK = 4096

// SketchConfig switches a Sample into bounded-memory reservoir mode.
//
// The reservoir is a deterministic bottom-K sketch: observation number
// k of a stream is assigned the priority
//
//	splitmix64(Seed + Stream*GOLDEN + k*PRIME)
//
// — a pure function of (Seed, Stream, k), no shared RNG state — and
// the sketch keeps the K observations with the smallest
// (priority, value) pairs. Because each priority depends only on the
// observation's identity, not on when or where it was processed, and
// because "bottom K of a multiset" is commutative and associative, the
// kept set is invariant under host advance order, worker count, and
// merge order: merging per-host sketches in any order yields
// byte-identical reservoirs, the same property the exact Sample.Merge
// guarantees for full retention.
type SketchConfig struct {
	// K is the reservoir capacity; <= 0 selects DefaultSketchK.
	K int
	// Seed salts every priority, so different runs draw independent
	// reservoirs.
	Seed uint64
	// Stream identifies the logical observation stream (e.g. a host ID,
	// or a host ID x metric index). Distinct streams draw independent
	// priorities, which keeps per-host reservoirs uncorrelated before
	// they merge.
	Stream uint64
}

// RankErrorBound returns the two-sided 99%-confidence bound on the
// rank error of a K-entry reservoir's quantile estimates, as a
// fraction of the stream length (the Dvoretzky–Kiefer–Wolfowitz
// inequality: eps = sqrt(ln(2/delta) / 2K) with delta = 0.01). The
// sketch accuracy property tests assert estimated percentiles stay
// within this bound of the exact ones.
func RankErrorBound(k int) float64 {
	if k <= 0 {
		k = DefaultSketchK
	}
	// ln(2/0.01) = ln(200) ≈ 5.2983
	return math.Sqrt(5.2983173665480365 / (2 * float64(k)))
}

// sketchEntry is one retained observation with its replacement
// priority.
type sketchEntry struct {
	prio uint64
	v    float64
}

// entryLess orders entries by (priority, value); the reservoir keeps
// the K smallest under this order. Including the value breaks priority
// ties deterministically, so the kept set is a pure function of the
// entry multiset.
func entryLess(a, b sketchEntry) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.v < b.v
}

// sketch is the bounded-memory state behind a sketched Sample. ents is
// a max-heap under entryLess, so the largest retained key is ents[0]
// and replacement is O(log K). n, sum-of-squares (and the Sample's
// own sum/min/max) stay exact; only the order statistics are
// approximated.
type sketch struct {
	cfg    SketchConfig
	ents   []sketchEntry
	n      int     // exact observation count
	sumsq  float64 // exact sum of squares, for Stddev
	count  uint64  // counter-mode index of the next observation
	vals   []float64
	sorted bool // vals holds the sorted reservoir values
}

// sketchPrio mixes (seed, stream, k) through the splitmix64 finalizer:
// the same construction as the trace and fault layers' counter-mode
// decision streams.
func sketchPrio(seed, stream, k uint64) uint64 {
	x := seed + stream*0x9E3779B97F4A7C15 + k*0xD1B54A32D192ED03
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (sk *sketch) add(v float64) {
	p := sketchPrio(sk.cfg.Seed, sk.cfg.Stream, sk.count)
	sk.count++
	sk.n++
	sk.sumsq += v * v
	sk.insert(sketchEntry{prio: p, v: v})
}

func (sk *sketch) insert(e sketchEntry) {
	if len(sk.ents) < sk.cfg.K {
		sk.ents = append(sk.ents, e)
		sk.siftUp(len(sk.ents) - 1)
		sk.sorted = false
		return
	}
	// Full: keep e only if it beats the largest retained key.
	if !entryLess(e, sk.ents[0]) {
		return
	}
	sk.ents[0] = e
	sk.siftDown(0)
	sk.sorted = false
}

// siftUp/siftDown maintain the max-heap ordering (parent >= children
// under entryLess).
func (sk *sketch) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(sk.ents[parent], sk.ents[i]) {
			return
		}
		sk.ents[parent], sk.ents[i] = sk.ents[i], sk.ents[parent]
		i = parent
	}
}

func (sk *sketch) siftDown(i int) {
	n := len(sk.ents)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && entryLess(sk.ents[big], sk.ents[l]) {
			big = l
		}
		if r < n && entryLess(sk.ents[big], sk.ents[r]) {
			big = r
		}
		if big == i {
			return
		}
		sk.ents[big], sk.ents[i] = sk.ents[i], sk.ents[big]
		i = big
	}
}

// merge folds o's entries into sk: the union's bottom K. Exact moments
// add; the counter is untouched (it indexes sk's own future Adds).
func (sk *sketch) merge(o *sketch) {
	for _, e := range o.ents {
		sk.insert(e)
	}
	sk.n += o.n
	sk.sumsq += o.sumsq
}

// sortedVals returns the reservoir's values sorted ascending, cached
// until the next insertion.
func (sk *sketch) sortedVals() []float64 {
	if sk.sorted {
		return sk.vals
	}
	sk.vals = sk.vals[:0]
	for _, e := range sk.ents {
		sk.vals = append(sk.vals, e.v)
	}
	sort.Float64s(sk.vals)
	sk.sorted = true
	return sk.vals
}

func (sk *sketch) reset() {
	sk.ents = sk.ents[:0]
	sk.vals = sk.vals[:0]
	sk.sorted = false
	sk.n = 0
	sk.sumsq = 0
	sk.count = 0
}

// EnableSketch switches s into bounded-memory reservoir mode: memory
// stays O(K) regardless of how many observations are added, exact mode
// behavior is unchanged for Count/Sum/Mean/Min/Max (still exact), and
// order statistics (Percentile and friends) are estimated from the
// reservoir within RankErrorBound(K) of the exact ranks. Percentile(0)
// and Percentile(100) remain exact (they answer from Min/Max).
//
// EnableSketch must be called on an empty sample (it panics otherwise:
// retroactively sketching already-retained observations would silently
// change results). Reset keeps the sketch configuration, so pooled
// metrics reuse works the same as in exact mode; DisableSketch returns
// the (empty) sample to exact mode.
func (s *Sample) EnableSketch(cfg SketchConfig) {
	if s.N() != 0 {
		panic("stats: EnableSketch on a non-empty sample")
	}
	if cfg.K <= 0 {
		cfg.K = DefaultSketchK
	}
	if s.sk != nil {
		// Reuse the pooled buffers; only the identity changes.
		s.sk.cfg = cfg
		s.sk.reset()
		return
	}
	s.sk = &sketch{cfg: cfg}
}

// DisableSketch returns an empty sketched sample to exact mode. It
// panics on a non-empty sample for the same reason EnableSketch does.
func (s *Sample) DisableSketch() {
	if s.N() != 0 {
		panic("stats: DisableSketch on a non-empty sample")
	}
	s.sk = nil
}

// Sketched reports whether the sample is in reservoir mode.
func (s *Sample) Sketched() bool { return s.sk != nil }

// SketchFingerprint summarizes the reservoir state (entry count plus
// every retained (priority, value) pair folded through FNV-style
// mixing) for determinism tests: two sketches fingerprint equal iff
// their retained sets are identical. It returns 0 for exact-mode
// samples.
func (s *Sample) SketchFingerprint() uint64 {
	if s.sk == nil {
		return 0
	}
	// Fold entries order-insensitively (sum of mixed pairs), so the
	// heap's internal layout — which can differ across insertion
	// orders — doesn't leak into the fingerprint.
	var fp uint64
	for _, e := range s.sk.ents {
		x := e.prio ^ math.Float64bits(e.v)
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		fp += x
	}
	return fp + uint64(len(s.sk.ents))<<48
}

func sketchMergePanic(dst, src *Sample) string {
	return fmt.Sprintf("stats: merging mismatched sample modes (dst sketched=%v, src sketched=%v)",
		dst.Sketched(), src.Sketched())
}
