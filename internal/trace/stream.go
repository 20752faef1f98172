package trace

import (
	"math"
	"math/rand/v2"

	"squeezy/internal/sim"
)

// Stream is a pull-based iterator over a time-ordered invocation
// sequence, the one form an invocation sequence takes from generator
// to dispatcher. Next returns the next invocation and true, or a zero
// value and false when the stream is exhausted. Streams generate
// invocations on demand from O(1) cursor state (plus O(funcs) for
// merged fleets), so a multi-day, million-invocation trace never
// exists in memory at once.
type Stream interface {
	Next() (TaggedInvocation, bool)
}

// TaggedInvocation is one invocation of a stream: the function of
// rank Func arrives at T.
type TaggedInvocation struct {
	T    sim.Time
	Func int
}

// DiurnalConfig is one sinusoidal rate-modulation layer: the
// instantaneous request rate is multiplied by
//
//	1 + Amplitude*sin(2*pi*t/Period + Phase)
//
// at every gap draw. Layering a 24 h period over a 7-day period gives
// the daily-peak-with-weekend-trough shape of production FaaS traffic.
// Multiple layers multiply; the combined factor is clamped below at
// 0.01 so a deep trough slows the trace instead of stalling it.
type DiurnalConfig struct {
	// Period is the cycle length, e.g. 24*sim.Hour (diurnal) or
	// 7*24*sim.Hour (weekly). Non-positive periods are ignored.
	Period sim.Duration
	// Amplitude is the peak fractional rate swing, normally in [0, 1).
	Amplitude float64
	// Phase offsets the cycle, in radians. Zero starts at the mean
	// rate heading into the peak.
	Phase float64
}

// modFactor evaluates the combined modulation factor at time t. An
// empty layer list returns exactly 1 without touching floating point,
// so unmodulated configs stay byte-identical to the pre-modulation
// generator.
func modFactor(mods []DiurnalConfig, t sim.Time) float64 {
	f := 1.0
	for _, m := range mods {
		if m.Period <= 0 || m.Amplitude == 0 {
			continue
		}
		f *= 1 + m.Amplitude*math.Sin(2*math.Pi*float64(t)/float64(m.Period)+m.Phase)
	}
	if f < 0.01 {
		f = 0.01
	}
	return f
}

// Bursty is a streaming generator of one function's bursty
// Poisson-modulated trace, holding only the RNG and phase state.
type Bursty struct {
	// Func tags every emitted invocation with a function index;
	// FleetCursors sets it to the function's rank.
	Func int

	rng      *rand.Rand
	cfg      BurstyConfig
	now      sim.Time
	end      sim.Time
	inBurst  bool
	phaseEnd sim.Time
}

// NewBursty creates a streaming bursty-trace cursor. The same seed
// always yields the same stream.
func NewBursty(seed uint64, cfg BurstyConfig) *Bursty {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	b := &Bursty{rng: rng, cfg: cfg, end: sim.Time(cfg.Duration)}
	b.phaseEnd = b.now.Add(expDur(rng, cfg.BurstGap))
	return b
}

// Next returns the next invocation, advancing the cursor. The emitted
// times are strictly increasing (gap draws are floored at 1 µs) and
// lie in [0, cfg.Duration).
func (b *Bursty) Next() (TaggedInvocation, bool) {
	for b.now < b.end {
		rate := b.cfg.BaseRPS
		if b.inBurst {
			rate = b.cfg.BurstRPS
		}
		if len(b.cfg.Modulation) > 0 {
			rate *= modFactor(b.cfg.Modulation, b.now)
		}
		var next sim.Time
		if rate <= 0 {
			next = b.end
		} else {
			gap := sim.Duration(b.rng.ExpFloat64() / rate * float64(sim.Second))
			if gap < sim.Microsecond {
				gap = sim.Microsecond
			}
			next = b.now.Add(gap)
		}
		if next >= b.phaseEnd {
			b.now = b.phaseEnd
			b.inBurst = !b.inBurst
			if b.inBurst {
				b.phaseEnd = b.now.Add(expDur(b.rng, b.cfg.BurstLen))
			} else {
				b.phaseEnd = b.now.Add(expDur(b.rng, b.cfg.BurstGap))
			}
			continue
		}
		b.now = next
		if b.now < b.end {
			return TaggedInvocation{T: b.now, Func: b.Func}, true
		}
	}
	return TaggedInvocation{}, false
}

// FleetStream merges per-function cursors into one stream ordered by
// (time, function index) while holding O(funcs) state: one cursor and
// one buffered head per function, independent of trace length. It is
// the replay source for multi-day million-invocation fleet cells.
type FleetStream struct {
	srcs   []Stream
	heap   []TaggedInvocation
	srcIdx []int // srcIdx[i] is the source behind heap[i]
}

// NewFleetStream merges the fleet's per-function cursors
// (FleetCursors) on the fly.
func NewFleetStream(seed uint64, cfg FleetConfig) *FleetStream {
	cursors := FleetCursors(seed, cfg)
	srcs := make([]Stream, len(cursors))
	for i, c := range cursors {
		srcs[i] = c
	}
	return NewMerged(srcs)
}

// FleetCursors builds one bursty cursor per function, with the
// aggregate rates split across functions by Zipf popularity: a handful
// of hot functions dominate, followed by a long tail of rarely-invoked
// ones — the shape that makes fleet placement interesting (hot
// functions need instances everywhere; the tail pays a cold start
// almost every time). Cursor i generates function i's trace and tags
// its invocations with Func=i; NewFleetStream merges them. The same
// seed always yields the same cursors.
func FleetCursors(seed uint64, cfg FleetConfig) []*Bursty {
	if cfg.Funcs <= 0 {
		return nil
	}
	s := cfg.ZipfS
	if s == 0 {
		s = 1.1
	}
	burstLen, burstGap := cfg.BurstLen, cfg.BurstGap
	if burstLen <= 0 {
		burstLen = 20 * sim.Second
	}
	if burstGap <= 0 {
		burstGap = 45 * sim.Second
	}
	weights := make([]float64, cfg.Funcs)
	var total float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -s)
		total += weights[i]
	}
	cursors := make([]*Bursty, cfg.Funcs)
	for i := range cursors {
		share := weights[i] / total
		cursors[i] = NewBursty(fleetSeed(seed, uint64(i)), BurstyConfig{
			Duration:   cfg.Duration,
			BaseRPS:    cfg.TotalBaseRPS * share,
			BurstRPS:   cfg.TotalBurstRPS * share,
			BurstLen:   burstLen,
			BurstGap:   burstGap,
			Modulation: cfg.Modulation,
		})
		cursors[i].Func = i
	}
	return cursors
}

// NewMerged merges time-ordered source streams into one stream ordered
// by (T, Func). Each source must emit non-decreasing times; sources
// normally carry distinct Func tags (ties on both T and Func break by
// source index, deterministically). The merger holds one buffered head
// per live source.
func NewMerged(srcs []Stream) *FleetStream {
	m := &FleetStream{srcs: srcs, heap: make([]TaggedInvocation, 0, len(srcs))}
	for i, s := range srcs {
		if inv, ok := s.Next(); ok {
			m.push(inv, i)
		}
	}
	return m
}

func (m *FleetStream) push(inv TaggedInvocation, src int) {
	m.heap = append(m.heap, inv)
	m.srcIdx = append(m.srcIdx, src)
	i := len(m.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !m.less(i, parent) {
			break
		}
		m.swap(i, parent)
		i = parent
	}
}

func (m *FleetStream) less(i, j int) bool {
	a, b := m.heap[i], m.heap[j]
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Func != b.Func {
		return a.Func < b.Func
	}
	return m.srcIdx[i] < m.srcIdx[j]
}

func (m *FleetStream) swap(i, j int) {
	m.heap[i], m.heap[j] = m.heap[j], m.heap[i]
	m.srcIdx[i], m.srcIdx[j] = m.srcIdx[j], m.srcIdx[i]
}

func (m *FleetStream) siftDown(i int) {
	n := len(m.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && m.less(l, small) {
			small = l
		}
		if r < n && m.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		m.swap(i, small)
		i = small
	}
}

// Next pops the globally-next invocation and refills from its source.
func (m *FleetStream) Next() (TaggedInvocation, bool) {
	if len(m.heap) == 0 {
		return TaggedInvocation{}, false
	}
	top := m.heap[0]
	src := m.srcIdx[0]
	if inv, ok := m.srcs[src].Next(); ok {
		m.heap[0] = inv
		m.siftDown(0)
	} else {
		n := len(m.heap) - 1
		m.heap[0] = m.heap[n]
		m.srcIdx[0] = m.srcIdx[n]
		m.heap = m.heap[:n]
		m.srcIdx = m.srcIdx[:n]
		if n > 0 {
			m.siftDown(0)
		}
	}
	return top, true
}

// Funcs returns the number of source streams the merger was built
// over (live or exhausted).
func (m *FleetStream) Funcs() int { return len(m.srcs) }

// TopTenStream synthesizes the invocation stream of the function at
// rank i (0-based) of a set shaped like the 10 most popular functions
// of the Azure production traces, tagged Func=i: very high aggregate
// rates with per-function bursts, driving the thousands of instance
// creations and evictions per minute that Figure 2 reports. Each rank
// is independent of the other nine, so Figure 2 replays each as its
// own cell at a cost proportional to its own stream.
func TopTenStream(seed uint64, duration sim.Duration, i int) *Bursty {
	// Popularity decays across the top-10 ranks; the busiest
	// functions see hundreds of requests per second in bursts.
	rank := float64(i + 1)
	b := NewBursty(seed+uint64(i)*101, BurstyConfig{
		Duration: duration,
		BaseRPS:  12 / rank,
		BurstRPS: 220 / rank,
		BurstLen: 25 * sim.Second,
		BurstGap: 70 * sim.Second,
	})
	b.Func = i
	return b
}
