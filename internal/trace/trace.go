package trace

import (
	"math/rand/v2"
	"sort"

	"squeezy/internal/sim"
)

// Trace is a sorted sequence of invocation times for one function.
type Trace struct {
	Times []sim.Time
}

// Len returns the number of invocations.
func (t *Trace) Len() int { return len(t.Times) }

// BurstyConfig parameterizes the synthetic bursty generator.
type BurstyConfig struct {
	// Duration is the trace length.
	Duration sim.Duration
	// BaseRPS is the quiet-period request rate (requests/second).
	BaseRPS float64
	// BurstRPS is the in-burst request rate.
	BurstRPS float64
	// BurstLen is the mean burst duration.
	BurstLen sim.Duration
	// BurstGap is the mean quiet gap between bursts.
	BurstGap sim.Duration
	// Modulation layers sinusoidal rate modulation (diurnal, weekly)
	// onto both the base and burst rates. Empty modulation is
	// byte-identical to the unmodulated generator: the factor is not
	// even computed.
	Modulation []DiurnalConfig
}

// GenBursty synthesizes a bursty Poisson-modulated trace by collecting
// the streaming cursor (NewBursty). The same seed always yields the
// same trace.
func GenBursty(seed uint64, cfg BurstyConfig) *Trace {
	return Collect(NewBursty(seed, cfg))
}

func expDur(rng *rand.Rand, mean sim.Duration) sim.Duration {
	if mean <= 0 {
		return 0
	}
	d := sim.Duration(rng.ExpFloat64() * float64(mean))
	if d < sim.Millisecond {
		d = sim.Millisecond
	}
	return d
}

// FleetConfig parameterizes the fleet generator: many functions whose
// popularity follows a Zipf law, each driven by the bursty generator.
type FleetConfig struct {
	// Funcs is the number of functions in the fleet.
	Funcs int
	// Duration is the trace length.
	Duration sim.Duration
	// ZipfS is the popularity exponent: function of rank r carries
	// weight 1/r^s of the aggregate rate. 0 selects 1.1, close to the
	// skew of the Azure production traces [66].
	ZipfS float64
	// TotalBaseRPS is the fleet-aggregate quiet-period rate; each
	// function receives its Zipf share.
	TotalBaseRPS float64
	// TotalBurstRPS is the fleet-aggregate in-burst rate.
	TotalBurstRPS float64
	// BurstLen and BurstGap shape each function's bursts (defaults
	// 20 s / 45 s). Burst phases are independent across functions, so
	// fleet load is bursty but rarely synchronized.
	BurstLen sim.Duration
	BurstGap sim.Duration
	// Modulation layers sinusoidal rate modulation (diurnal, weekly)
	// onto every function's rates — the fleet-aggregate rate swings by
	// the same factor. Empty modulation is byte-identical to the
	// unmodulated generator.
	Modulation []DiurnalConfig
}

// GenFleet synthesizes one bursty trace per function, with aggregate
// rates split across functions by Zipf popularity: a handful of hot
// functions dominate, followed by a long tail of rarely-invoked ones —
// the shape that makes fleet placement interesting (hot functions need
// instances everywhere; the tail pays a cold start almost every time).
// The same seed always yields the same traces.
//
// GenFleet materializes; NewFleetStream replays the identical fleet as
// a merged stream in O(funcs) memory.
func GenFleet(seed uint64, cfg FleetConfig) []*Trace {
	cursors := FleetCursors(seed, cfg)
	if cursors == nil {
		return nil
	}
	traces := make([]*Trace, len(cursors))
	for i, c := range cursors {
		traces[i] = Collect(c)
	}
	return traces
}

// fleetSeed derives function i's seed by mixing (seed, i) through the
// splitmix64 finalizer, so per-function streams stay well separated
// even across adjacent base seeds (the same construction as the
// experiment runner's per-trial seeds).
func fleetSeed(seed, i uint64) uint64 {
	x := seed + (i+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ChurnKind classifies one fleet-shape change in a churn profile.
type ChurnKind int

// Churn event kinds, mirrored by the cluster layer's FleetEvent kinds.
const (
	// ChurnJoin adds a host to the fleet.
	ChurnJoin ChurnKind = iota
	// ChurnFail kills a host abruptly: warm pool lost, in-flight
	// invocations re-placed.
	ChurnFail
	// ChurnDrain removes a host gracefully: no new placements, running
	// work finishes (or is re-placed at the drain deadline).
	ChurnDrain
	// ChurnRackFail kills every host of a rack at once (Host is the
	// rack index; dangling racks are no-ops). Generated only when
	// ChurnConfig.Racks > 0; the cluster layer plays it as a rack-fail
	// fault event.
	ChurnRackFail
)

// ChurnEvent is one scheduled fleet-shape change.
type ChurnEvent struct {
	T    sim.Time
	Kind ChurnKind
	// Host targets a specific host ID; -1 lets the fleet pick the
	// busiest live host at event time (the worst-case victim). For
	// ChurnRackFail it is a rack index instead.
	Host int
}

// ChurnConfig parameterizes the fuzzed churn-profile generator.
type ChurnConfig struct {
	// Duration bounds event times: events land in (0, Duration).
	Duration sim.Duration
	// Events is the number of churn events to generate.
	Events int
	// Hosts is the fleet's initial host count; targeted events pick IDs
	// in [0, 2*Hosts) so some deliberately name hosts that are already
	// gone or never existed (the fleet must treat those as no-ops).
	Hosts int
	// Racks, when > 0, adds rack-level targets to the mix: some events
	// become ChurnRackFail with rack indices in [0, 2*Racks), half
	// deliberately dangling. Zero keeps schedules byte-identical to
	// the flat generator.
	Racks int
}

// GenChurn synthesizes a random churn schedule — join, fail, and drain
// events (plus rack failures when the config has racks) at uniform
// times, half targeting the busiest host (-1) and half targeting
// explicit (possibly dangling) IDs. The same seed always yields the
// same schedule; the determinism property tests fuzz fleet runs with
// these schedules across seeds.
func GenChurn(seed uint64, cfg ChurnConfig) []ChurnEvent {
	rng := rand.New(rand.NewPCG(seed, 0xc4123))
	kinds := 3
	if cfg.Racks > 0 {
		kinds = 4
	}
	events := make([]ChurnEvent, 0, cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		ev := ChurnEvent{
			T:    sim.Time(1 + rng.Int64N(int64(cfg.Duration)-1)),
			Kind: ChurnKind(rng.IntN(kinds)),
			Host: -1,
		}
		if ev.Kind == ChurnRackFail {
			ev.Host = rng.IntN(2 * cfg.Racks)
		} else if rng.IntN(2) == 0 && cfg.Hosts > 0 {
			ev.Host = rng.IntN(2 * cfg.Hosts)
		}
		events = append(events, ev)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].T < events[j].T })
	return events
}

// Merge combines traces into one sorted stream, tagging each invocation
// with its source index.
type TaggedInvocation struct {
	T    sim.Time
	Func int
}

// Merge flattens traces into a single time-ordered invocation stream.
func Merge(traces []*Trace) []TaggedInvocation {
	var out []TaggedInvocation
	for fi, tr := range traces {
		for _, t := range tr.Times {
			out = append(out, TaggedInvocation{T: t, Func: fi})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// ChurnPoint is one minute of Figure 2: instances created and evicted.
type ChurnPoint struct {
	Minute    int
	Creations int
	Evictions int
}

// InstanceChurn replays a stream against a simple instance pool —
// reuse an idle instance when one exists, create one otherwise, evict
// after keepAlive of idleness — and reports per-minute creations and
// evictions, the analysis behind Figure 2. The stream's times must be
// non-decreasing and execTime and keepAlive non-negative; the replay
// stops at the first invocation at or past duration.
func InstanceChurn(s Stream, execTime, keepAlive sim.Duration, duration sim.Duration) []ChurnPoint {
	minutes := int((duration + sim.Minute - 1) / sim.Minute)
	points := make([]ChurnPoint, minutes)
	for i := range points {
		points[i].Minute = i
	}
	// Invocation times are non-decreasing and execTime is constant, so
	// each new instance's freeAt is >= every existing one: the busy
	// instances free up in the order they were started, and the idle
	// ones, all freed no later than any busy one, stay sorted as busy
	// ones join their end. Reuse takes the newest idle instance (LIFO
	// keeps the warm pool small, like keep-alive reuse) and eviction
	// the oldest, so each is a slice of freeAt with a head cursor.
	var busy, idle []sim.Time
	var busyHead, idleHead int

	// advance moves every instance free by now to idle and evicts the
	// idle ones whose keep-alive has run out by now.
	advance := func(now sim.Time) {
		for ; busyHead < len(busy) && busy[busyHead] <= now; busyHead++ {
			idle = append(idle, busy[busyHead])
		}
		for ; idleHead < len(idle); idleHead++ {
			expiry := idle[idleHead].Add(keepAlive)
			if expiry > now {
				break
			}
			if m := int(sim.Duration(expiry) / sim.Minute); m >= 0 && m < minutes {
				points[m].Evictions++
			}
		}
		busy, busyHead = compact(busy, busyHead)
		idle, idleHead = compact(idle, idleHead)
	}

	for {
		inv, ok := s.Next()
		if !ok {
			break
		}
		t := inv.T
		advance(t)
		m := int(sim.Duration(t) / sim.Minute)
		if m >= minutes {
			break
		}
		if idleHead < len(idle) {
			idle = idle[:len(idle)-1]
		} else {
			points[m].Creations++
		}
		busy = append(busy, t.Add(execTime))
	}
	advance(sim.Time(duration + keepAlive))
	return points
}

// compact drops q[:head] once it is more than half of q, so a queue
// popped at its head reuses its storage in O(1) amortized per step.
func compact(q []sim.Time, head int) ([]sim.Time, int) {
	if head > len(q)/2 {
		return append(q[:0], q[head:]...), 0
	}
	return q, head
}

// PeakConcurrency returns the maximum number of simultaneously busy
// instances a trace needs given the execution time — used to calibrate
// the concurrency factor N per VM (§6.2).
func PeakConcurrency(tr *Trace, execTime sim.Duration) int {
	type ev struct {
		t     sim.Time
		delta int
	}
	evs := make([]ev, 0, 2*len(tr.Times))
	for _, t := range tr.Times {
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
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
