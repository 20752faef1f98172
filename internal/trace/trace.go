package trace

import (
	"math/rand/v2"

	"squeezy/internal/sim"
)

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
// instances a stream needs given the execution time — used to
// calibrate the concurrency factor N per VM (§6.2). The stream's times
// must be non-decreasing and execTime positive. Since execTime is
// constant, instances finish in the order they started, so the busy
// set is a FIFO of finish times; one finishing exactly as another
// arrives frees up first.
func PeakConcurrency(s Stream, execTime sim.Duration) int {
	var busy []sim.Time
	head, peak := 0, 0
	for {
		inv, ok := s.Next()
		if !ok {
			return peak
		}
		for head < len(busy) && busy[head] <= inv.T {
			head++
		}
		busy, head = compact(busy, head)
		busy = append(busy, inv.T.Add(execTime))
		peak = max(peak, len(busy)-head)
	}
}
