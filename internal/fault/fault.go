package fault

import (
	"math"
	"math/rand/v2"
	"sort"

	"squeezy/internal/sim"
)

// Kind classifies one injected failure mode.
type Kind int

// Fault kinds. Magnitudes (Event.Mag) are kind-specific; see Event.
const (
	// ReclaimStall delays the completion of every reclaim-backend
	// command (plug, unplug, inflate) on the target host by Mag seconds:
	// the command occupies the device queue the whole time, so the
	// runtime's ReclaimDrainTimeout write-off fires and pressure is
	// re-raised against a device that has gone quiet.
	ReclaimStall Kind = iota
	// ReclaimPartial caps every unplug/inflate at fraction Mag of the
	// requested amount — the "completed but freed too little" half of
	// §6.2.2's failure space.
	ReclaimPartial
	// ColdFail makes a cold dispatch fail with probability Mag: the
	// boot burns MicroVMBoot and then returns an error Result instead
	// of an instance.
	ColdFail
	// ExecCrash kills a running instance mid-execution with probability
	// Mag: half the exec burst runs, then the instance dies, its memory
	// is released, and the caller gets an error Result.
	ExecCrash
	// Straggler scales the target host's entire cost model by Mag for
	// the window — same protocol, uniformly slower hardware.
	Straggler

	// RackFail kills, at T, every live host of the rack named by Host
	// (a rack index, not a host ID). With Mag < 1 each member fails
	// independently with probability Mag, decided by a counter-mode
	// DomainDraw. Instantaneous: Dur is ignored.
	RackFail
	// RackDegrade browns out the whole rack for the window: it expands
	// to a per-host Straggler of scale Mag on every live member.
	RackDegrade
	// RackPartition isolates the rack from the dispatcher for the
	// window: members keep advancing and finish in-flight work, but
	// take no new placements until the window closes.
	RackPartition

	numKinds
)

// numHostKinds marks where the single-host kinds end and the domain
// (rack-level) kinds begin: fuzzed plans draw from [0, numHostKinds)
// unless the plan is told the fleet has racks.
const numHostKinds = RackFail

var kindNames = [...]string{
	"reclaim-stall", "reclaim-partial", "cold-fail", "exec-crash", "straggler",
	"rack-fail", "rack-degrade", "rack-partition",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "fault(?)"
	}
	return kindNames[k]
}

// Domain reports whether the kind targets a failure domain (Host is a
// rack index) rather than a single host.
func (k Kind) Domain() bool { return k >= numHostKinds && k < numKinds }

// Event opens one fault window [T, T+Dur) of one Kind.
type Event struct {
	T    sim.Time
	Dur  sim.Duration
	Kind Kind
	// Host targets a specific host ID; -1 targets every host live at
	// window open. IDs that don't exist at open time are no-ops, and a
	// host that joins mid-window is unaffected by it. For domain kinds
	// (Kind.Domain) Host is a rack index instead; dangling racks — and
	// any rack on a fleet with no topology — are no-ops too.
	Host int
	// Mag is the kind-specific magnitude: stall seconds (ReclaimStall),
	// completed fraction in (0,1) (ReclaimPartial), failure probability
	// (ColdFail, ExecCrash, RackFail — per member), or cost scale >= 1
	// (Straggler, RackDegrade).
	Mag float64
}

// Config parameterizes the fuzzed fault-plan generator.
type Config struct {
	// Duration bounds window starts: they land in (0, Duration), with
	// window lengths from 1 ns up to Duration/4. A Duration under 4 ns
	// fits no window, and the plan is empty.
	Duration sim.Duration
	// Events is the number of fault windows to generate (none when
	// <= 0).
	Events int
	// Hosts is the fleet's initial host count; targeted events pick IDs
	// in [0, 2*Hosts) so some deliberately name hosts that are already
	// gone or never existed (the fleet must treat those as no-ops).
	// Counts past MaxInt/2 draw from [0, MaxInt) instead.
	Hosts int
	// Racks, when > 0, widens the kind space to the domain kinds
	// (RackFail/RackDegrade/RackPartition) with rack targets drawn in
	// [0, 2*Racks) — half deliberately dangling, which the fleet must
	// treat as no-ops — or [0, MaxInt) past MaxInt/2. Zero keeps plans
	// byte-identical to the flat generator.
	Racks int
}

// GenFaults synthesizes a random fault plan — overlapping windows of
// every kind at uniform times, half targeting all hosts (-1) and half
// targeting explicit (possibly dangling) IDs, with kind-appropriate
// magnitudes. The same seed always yields the same plan; the cluster
// determinism suites fuzz fleet runs with these plans across seeds,
// layered on fuzzed churn schedules. Out-of-range configs never
// panic: a plan with no events or no room for a window is empty, and
// target counts too large to double are capped (see Config).
func GenFaults(seed uint64, cfg Config) []Event {
	if cfg.Events <= 0 || cfg.Duration < 4 {
		return nil
	}
	rng := rand.New(rand.NewPCG(seed, 0xfa017))
	// target draws an ID in [0, 2n), capped so 2n cannot overflow.
	target := func(n int) int { return rng.IntN(2 * min(n, math.MaxInt/2)) }
	kinds := int(numHostKinds)
	if cfg.Racks > 0 {
		kinds = int(numKinds)
	}
	events := make([]Event, 0, cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		ev := Event{
			T:    sim.Time(1 + rng.Int64N(int64(cfg.Duration)-1)),
			Dur:  sim.Duration(1 + rng.Int64N(int64(cfg.Duration)/4)),
			Kind: Kind(rng.IntN(kinds)),
			Host: -1,
		}
		if ev.Kind.Domain() {
			ev.Host = target(cfg.Racks)
		} else if rng.IntN(2) == 0 && cfg.Hosts > 0 {
			ev.Host = target(cfg.Hosts)
		}
		switch ev.Kind {
		case ReclaimStall:
			ev.Mag = 6 + 10*rng.Float64() // 6-16 s, past ReclaimDrainTimeout and DispatchTimeout
		case ReclaimPartial:
			ev.Mag = 0.1 + 0.8*rng.Float64()
		case ColdFail:
			ev.Mag = 0.1 + 0.5*rng.Float64()
		case ExecCrash:
			ev.Mag = 0.05 + 0.35*rng.Float64()
		case Straggler, RackDegrade:
			ev.Mag = 2 + 6*rng.Float64()
		case RackFail:
			ev.Mag = 0.5 + 0.5*rng.Float64()
		}
		events = append(events, ev)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].T < events[j].T })
	return events
}

// ScenarioNames lists the named single-host fault scenarios, in
// presentation order. "none" is the empty plan. The domain scenarios
// are listed separately (DomainScenarioNames) so the PR 8 sweeps keep
// their exact row sets.
func ScenarioNames() []string {
	return []string{"none", "reclaim-degrade", "cold-crash", "straggler"}
}

// DomainScenarioNames lists the rack/zone-correlated scenarios. They
// only bite on a fleet with a topology (squeezyctl -topology); on a
// flat fleet their events are deterministic no-ops.
func DomainScenarioNames() []string {
	return []string{"rack-fail", "zone-degrade", "rack-partition"}
}

// Scenario builds a named fault profile sized to a run: one window
// covering the third quarter of the trace ([duration/2, 3*duration/4)),
// so phase-split metrics can bound tails at the window start.
//
//	reclaim-degrade  every host's reclaim commands stall 10 s and
//	                 complete at half strength
//	cold-crash       every host fails 35% of cold boots and crashes
//	                 25% of executions
//	straggler        host 0 browns out to 30x slower — far enough
//	                 past HedgeDelay that its victims are hedgeable
//	rack-fail        rack 1 dies outright at duration/2
//	zone-degrade     racks 0 and 1 (zone 0 of the reference 4x2
//	                 topology) brown out to 6x slower
//	rack-partition   rack 1 is isolated from the dispatcher for the
//	                 window
//
// The second return is false for an unknown name; "none" is known and
// returns an empty plan.
func Scenario(name string, hosts int, duration sim.Duration) ([]Event, bool) {
	at := sim.Time(duration / 2)
	dur := duration / 4
	switch name {
	case "none":
		return nil, true
	case "reclaim-degrade":
		return []Event{
			{T: at, Dur: dur, Kind: ReclaimStall, Host: -1, Mag: 10},
			{T: at, Dur: dur, Kind: ReclaimPartial, Host: -1, Mag: 0.5},
		}, true
	case "cold-crash":
		return []Event{
			{T: at, Dur: dur, Kind: ColdFail, Host: -1, Mag: 0.35},
			{T: at, Dur: dur, Kind: ExecCrash, Host: -1, Mag: 0.25},
		}, true
	case "straggler":
		return []Event{
			{T: at, Dur: dur, Kind: Straggler, Host: 0, Mag: 30},
		}, true
	case "rack-fail":
		return []Event{
			{T: at, Kind: RackFail, Host: 1, Mag: 1},
		}, true
	case "zone-degrade":
		return []Event{
			{T: at, Dur: dur, Kind: RackDegrade, Host: 0, Mag: 6},
			{T: at, Dur: dur, Kind: RackDegrade, Host: 1, Mag: 6},
		}, true
	case "rack-partition":
		return []Event{
			{T: at, Dur: dur, Kind: RackPartition, Host: 1},
		}, true
	}
	return nil, false
}

// SubSeed derives host i's decision-stream seed from the plan seed via
// the splitmix64 finalizer — the same construction as the experiment
// runner's per-trial seeds, so streams stay well separated across
// hosts and across adjacent plan seeds.
func SubSeed(seed uint64, i int) uint64 {
	x := seed + (uint64(i)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// DomainDraw returns the uniform [0,1) variate deciding whether host
// participates in domain event ev (e.g. a partial RackFail). It is a
// pure function of (plan seed, event time, kind, host ID) — the same
// counter-mode construction as the per-host injector streams, but on a
// separate channel, so expanding a domain event never advances any
// host's own decision counter. That makes the expansion invariant to
// host advance order and worker count by construction.
func DomainDraw(seed uint64, ev Event, host int) float64 {
	x := SubSeed(seed^(uint64(ev.T)*0x9E3779B97F4A7C15+uint64(ev.Kind)), host)
	return float64(x>>11) / (1 << 53)
}

// Injector is one host's view of the active fault windows plus its
// probabilistic decision stream. The serial dispatcher Opens and
// Closes windows at epoch boundaries (hosts parked); between
// boundaries only the owning host's events consult it. Decisions are
// drawn counter-mode from the host's SubSeed — the i-th draw on a host
// is a pure function of (plan seed, host ID, i), and because each
// host's event order is deterministic whatever order hosts advance in,
// so is every decision.
type Injector struct {
	host int
	seed uint64
	ctr  uint64

	// Effective state, recomputed from the open windows on every
	// Open/Close. Overlapping windows of one kind combine to the most
	// severe magnitude.
	stall     sim.Duration
	frac      float64 // 0 = no cap
	coldFailP float64
	crashP    float64
	scale     float64 // 0 = no scaling

	active []Event
}

// NewInjector builds host's injector for the plan seeded by seed.
func NewInjector(host int, seed uint64) *Injector {
	return &Injector{host: host, seed: SubSeed(seed, host)}
}

// Open activates one fault window on this host.
func (in *Injector) Open(ev Event) {
	in.active = append(in.active, ev)
	in.recompute()
}

// Close deactivates one previously opened window (matched by value;
// closing a window that was never opened here is a no-op).
func (in *Injector) Close(ev Event) {
	for i, a := range in.active {
		if a == ev {
			in.active = append(in.active[:i], in.active[i+1:]...)
			in.recompute()
			return
		}
	}
}

func (in *Injector) recompute() {
	in.stall, in.frac, in.coldFailP, in.crashP, in.scale = 0, 0, 0, 0, 0
	for _, ev := range in.active {
		switch ev.Kind {
		case ReclaimStall:
			if d := sim.Duration(ev.Mag * float64(sim.Second)); d > in.stall {
				in.stall = d
			}
		case ReclaimPartial:
			if in.frac == 0 || ev.Mag < in.frac {
				in.frac = ev.Mag
			}
		case ColdFail:
			if ev.Mag > in.coldFailP {
				in.coldFailP = ev.Mag
			}
		case ExecCrash:
			if ev.Mag > in.crashP {
				in.crashP = ev.Mag
			}
		case Straggler:
			if ev.Mag > in.scale {
				in.scale = ev.Mag
			}
		}
	}
}

// draw returns the next uniform [0,1) decision variate. Draws advance
// the counter only when a window actually needs one, so a host outside
// every window consumes nothing.
func (in *Injector) draw() float64 {
	in.ctr++
	x := SubSeed(in.seed, int(in.ctr))
	return float64(x>>11) / (1 << 53)
}

// ReclaimStall reports the extra delay to impose on the completion of
// the reclaim command finishing now (0 = none).
func (in *Injector) ReclaimStall() sim.Duration { return in.stall }

// ReclaimFraction reports the fraction of a reclaim request that may
// complete (1 = all of it).
func (in *Injector) ReclaimFraction() float64 {
	if in.frac <= 0 || in.frac > 1 {
		return 1
	}
	return in.frac
}

// FailCold decides whether the cold dispatch starting now fails.
func (in *Injector) FailCold() bool {
	return in.coldFailP > 0 && in.draw() < in.coldFailP
}

// CrashExec decides whether the execution starting now crashes.
func (in *Injector) CrashExec() bool {
	return in.crashP > 0 && in.draw() < in.crashP
}

// StragglerScale reports the host's current cost-model scale (1 = at
// full speed).
func (in *Injector) StragglerScale() float64 {
	if in.scale < 1 {
		return 1
	}
	return in.scale
}
