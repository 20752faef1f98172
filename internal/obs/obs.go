package obs

import (
	"sort"
	"sync"

	"squeezy/internal/sim"
)

// Clock supplies the simulated time a Recorder stamps events with.
// sim.Scheduler and cluster.Cluster both satisfy it.
type Clock interface {
	Now() sim.Time
}

// Cat classifies an event for trace viewers (the Chrome "cat" field).
type Cat string

// Event categories.
const (
	// CatInvoke covers the invocation lifecycle: arrive, dispatch tier,
	// placement, cold-start phases, execute, complete, re-place.
	CatInvoke Cat = "invoke"
	// CatMemory covers memory mechanics: balloon inflate/deflate,
	// virtio-mem and squeezy plug/unplug, buddy isolate/migrate detail,
	// keep-alive expiry, pressure evictions.
	CatMemory Cat = "memory"
	// CatFleet covers fleet-shape changes: join/fail/drain/autoscale
	// decisions with the pressure numbers that drove them.
	CatFleet Cat = "fleet"
	// CatFault covers injected faults and the dispatcher's recovery
	// behavior: fault windows opening/closing, boot failures and
	// crashes, attempt timeouts, retries, hedges, and load sheds.
	CatFault Cat = "fault"
)

// Event phase codes (Chrome trace-event "ph").
const (
	PhSpan    = byte('X') // complete event: Start + Dur
	PhInstant = byte('i') // instant event at Start
	PhGauge   = byte('C') // counter sample at Start
)

// Arg is one key/value annotation on an event. Construct with I, F, or
// S; the kind tag keeps the struct allocation-free for numeric args.
type Arg struct {
	Key  string
	Str  string
	Num  float64
	kind uint8
}

const (
	argNum uint8 = iota
	argStr
)

// I annotates an event with an integer value.
func I(key string, v int64) Arg { return Arg{Key: key, Num: float64(v), kind: argNum} }

// F annotates an event with a float value.
func F(key string, v float64) Arg { return Arg{Key: key, Num: v, kind: argNum} }

// S annotates an event with a string value.
func S(key, v string) Arg { return Arg{Key: key, Str: v, kind: argStr} }

// Value returns the arg's value as a JSON-encodable any.
func (a Arg) Value() any {
	if a.kind == argStr {
		return a.Str
	}
	return a.Num
}

// Event is one recorded trace event on simulated time.
type Event struct {
	Name  string
	Cat   Cat
	Ph    byte
	Start sim.Time
	Dur   sim.Duration // PhSpan only
	Args  []Arg
}

// Recorder accumulates events and counters for one track. A Recorder
// is single-owner: host recorders are written only by the goroutine
// advancing that host, the fleet recorder only by the serial
// dispatcher. Every method is a no-op on a nil receiver, so wiring can
// stay unconditional; hot paths should still guard with Enabled (or a
// plain nil check) to avoid building variadic args for nothing.
type Recorder struct {
	clock    Clock
	events   []Event
	counters map[string]int64
}

// NewRecorder returns a recorder stamping events from clock.
func NewRecorder(clock Clock) *Recorder { return &Recorder{clock: clock} }

// Enabled reports whether recording is live (non-nil receiver).
func (r *Recorder) Enabled() bool { return r != nil }

// Span records a completed span from start to the clock's current
// time.
func (r *Recorder) Span(name string, cat Cat, start sim.Time, args ...Arg) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		Name: name, Cat: cat, Ph: PhSpan,
		Start: start, Dur: r.clock.Now().Sub(start), Args: args,
	})
}

// SpanAt records a completed span with an explicit duration (for spans
// reconstructed after the fact, e.g. a request's arrival-to-done).
func (r *Recorder) SpanAt(name string, cat Cat, start sim.Time, dur sim.Duration, args ...Arg) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		Name: name, Cat: cat, Ph: PhSpan, Start: start, Dur: dur, Args: args,
	})
}

// Instant records a point event at the clock's current time.
func (r *Recorder) Instant(name string, cat Cat, args ...Arg) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		Name: name, Cat: cat, Ph: PhInstant, Start: r.clock.Now(), Args: args,
	})
}

// Gauge samples a named value at the clock's current time (a Perfetto
// counter track).
func (r *Recorder) Gauge(name string, cat Cat, v float64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		Name: name, Cat: cat, Ph: PhGauge, Start: r.clock.Now(),
		Args: []Arg{F("value", v)},
	})
}

// Count adds delta to the named registry counter. Counters are plain
// sums; Trace.Counters merges them across tracks in host-ID order.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	r.counters[name] += delta
}

// Events returns the recorded events in record order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Counters returns the recorder's counter registry (nil when empty).
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	return r.counters
}

// Trace is the recorded observability of one simulation run (one cell
// of one experiment trial): a fleet-level track written serially at
// epoch boundaries, plus one track per host, written host-locally.
// All methods tolerate a nil receiver by returning nil recorders, so a
// disabled run threads nil through every layer for free.
type Trace struct {
	// Identity, used to label the exported process and metrics entry.
	Experiment string
	Trial      int
	Label      string

	fleet *Recorder
	hosts []*Recorder // indexed by host ID; entries may be nil
}

// FleetTrack returns the fleet-level recorder, creating it on first
// use with the given clock (the dispatcher). Nil-safe: a nil Trace
// returns a nil Recorder.
func (t *Trace) FleetTrack(clock Clock) *Recorder {
	if t == nil {
		return nil
	}
	if t.fleet == nil {
		t.fleet = NewRecorder(clock)
	} else {
		t.fleet.clock = clock
	}
	return t.fleet
}

// HostTrack returns the recorder for host id, creating it on first use
// with the given clock (the host's private scheduler). Host tracks are
// created serially — at attach time or at a join boundary — and then
// written only by the host's owner. Nil-safe.
func (t *Trace) HostTrack(id int, clock Clock) *Recorder {
	if t == nil {
		return nil
	}
	for len(t.hosts) <= id {
		t.hosts = append(t.hosts, nil)
	}
	if t.hosts[id] == nil {
		t.hosts[id] = NewRecorder(clock)
	} else {
		t.hosts[id].clock = clock
	}
	return t.hosts[id]
}

// Fleet returns the fleet-level recorder, or nil.
func (t *Trace) Fleet() *Recorder {
	if t == nil {
		return nil
	}
	return t.fleet
}

// Hosts returns the host recorders in host-ID order; entries may be
// nil for hosts that never recorded.
func (t *Trace) Hosts() []*Recorder {
	if t == nil {
		return nil
	}
	return t.hosts
}

// Empty reports whether the trace recorded nothing at all.
func (t *Trace) Empty() bool {
	if t == nil {
		return true
	}
	if len(t.fleet.Events()) > 0 || len(t.fleet.Counters()) > 0 {
		return false
	}
	for _, h := range t.hosts {
		if len(h.Events()) > 0 || len(h.Counters()) > 0 {
			return false
		}
	}
	return true
}

// Counters merges the counter registries of every track — fleet first,
// then hosts in host-ID order — into one map. Counters are additive,
// so the merged registry is identical whatever order hosts advance in.
func (t *Trace) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	out := make(map[string]int64)
	add := func(m map[string]int64) {
		for k, v := range m {
			out[k] += v
		}
	}
	add(t.fleet.Counters())
	for _, h := range t.hosts {
		add(h.Counters())
	}
	return out
}

// Sink collects the traces of a multi-cell run. Cells complete on
// arbitrary workers in arbitrary order; Add is the only synchronized
// point, and Traces re-sorts by (Experiment, Trial, Label) so the
// exported file is independent of scheduling.
type Sink struct {
	mu     sync.Mutex
	traces []*Trace
}

// Add appends a completed trace. Safe for concurrent use; a nil sink
// or nil trace is a no-op.
func (s *Sink) Add(t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	s.traces = append(s.traces, t)
	s.mu.Unlock()
}

// Traces returns the collected traces sorted by (Experiment, Trial,
// Label) — a deterministic order at any worker count.
func (s *Sink) Traces() []*Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]*Trace(nil), s.traces...)
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Experiment != out[j].Experiment {
			return out[i].Experiment < out[j].Experiment
		}
		if out[i].Trial != out[j].Trial {
			return out[i].Trial < out[j].Trial
		}
		return out[i].Label < out[j].Label
	})
	return out
}
