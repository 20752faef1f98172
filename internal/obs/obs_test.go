package obs

import (
	"reflect"
	"sync"
	"testing"

	"squeezy/internal/sim"
)

// fakeClock is a settable Clock for recorder tests.
type fakeClock struct{ t sim.Time }

func (c *fakeClock) Now() sim.Time { return c.t }

// TestNilSafety exercises every method on nil receivers: the disabled
// path must be a silent no-op so instrumented layers can wire recorders
// unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	r.Span("s", CatInvoke, 0)
	r.SpanAt("s", CatInvoke, 0, sim.Millisecond)
	r.Instant("i", CatMemory, I("k", 1))
	r.Gauge("g", CatFleet, 1.5)
	r.Count("c", 2)
	if r.Events() != nil || r.Counters() != nil {
		t.Error("nil recorder returned non-nil events or counters")
	}

	var tr *Trace
	if tr.FleetTrack(nil) != nil || tr.HostTrack(3, nil) != nil {
		t.Error("nil trace returned a live recorder")
	}
	if tr.Fleet() != nil || tr.Hosts() != nil {
		t.Error("nil trace returned tracks")
	}
	if !tr.Empty() {
		t.Error("nil trace not Empty")
	}
	if tr.Counters() != nil {
		t.Error("nil trace returned counters")
	}

	var s *Sink
	s.Add(&Trace{})
	s.Add(nil)
	if s.Traces() != nil {
		t.Error("nil sink returned traces")
	}
}

func TestRecorderEvents(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk)
	if !r.Enabled() {
		t.Fatal("live recorder not Enabled")
	}

	start := sim.Time(2 * sim.Millisecond)
	clk.t = sim.Time(5 * sim.Millisecond)
	r.Span("work", CatInvoke, start, S("fn", "f0"))
	r.Instant("done", CatInvoke, I("host", 3))
	r.Gauge("pressure", CatFleet, 0.25)
	r.SpanAt("recon", CatMemory, 0, 7*sim.Millisecond)

	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Ph != PhSpan || evs[0].Start != start || evs[0].Dur != 3*sim.Millisecond {
		t.Errorf("span = %+v, want start 2ms dur 3ms", evs[0])
	}
	if evs[1].Ph != PhInstant || evs[1].Start != clk.t {
		t.Errorf("instant = %+v, want at clock time", evs[1])
	}
	if evs[2].Ph != PhGauge || evs[2].Args[0].Value() != 0.25 {
		t.Errorf("gauge = %+v, want value 0.25", evs[2])
	}
	if evs[3].Dur != 7*sim.Millisecond {
		t.Errorf("SpanAt dur = %v, want 7ms", evs[3].Dur)
	}
}

func TestArgValues(t *testing.T) {
	if v := I("k", 42).Value(); v != float64(42) {
		t.Errorf("I.Value = %v (%T), want 42.0", v, v)
	}
	if v := F("k", 1.5).Value(); v != 1.5 {
		t.Errorf("F.Value = %v, want 1.5", v)
	}
	if v := S("k", "x").Value(); v != "x" {
		t.Errorf("S.Value = %v, want x", v)
	}
}

// TestTraceCounterMerge checks the registry merge is additive over
// fleet-then-hosts, so it cannot depend on which host recorded what first.
func TestTraceCounterMerge(t *testing.T) {
	clk := &fakeClock{}
	tr := &Trace{Experiment: "e"}
	tr.FleetTrack(clk).Count("invocations", 10)
	tr.HostTrack(0, clk).Count("cold_starts", 2)
	tr.HostTrack(2, clk).Count("cold_starts", 3)
	tr.HostTrack(2, clk).Count("warm_starts", 5)

	want := map[string]int64{"invocations": 10, "cold_starts": 5, "warm_starts": 5}
	if got := tr.Counters(); !reflect.DeepEqual(got, want) {
		t.Errorf("merged counters = %v, want %v", got, want)
	}
	if hosts := tr.Hosts(); len(hosts) != 3 || hosts[1] != nil {
		t.Errorf("hosts = %v, want 3 entries with a nil gap at 1", hosts)
	}
	if tr.Empty() {
		t.Error("trace with counters reports Empty")
	}
	if !(&Trace{}).Empty() {
		t.Error("fresh trace not Empty")
	}
}

// TestTrackReuse: reattaching a track (a pooled world's next cell, or a
// rejoined host) swaps the clock but keeps the recorder identity.
func TestTrackReuse(t *testing.T) {
	tr := &Trace{}
	c1, c2 := &fakeClock{}, &fakeClock{t: 9}
	r := tr.FleetTrack(c1)
	if tr.FleetTrack(c2) != r {
		t.Error("FleetTrack changed identity on reattach")
	}
	r.Instant("x", CatFleet)
	if r.Events()[0].Start != 9 {
		t.Error("reattached clock not used")
	}
	h := tr.HostTrack(1, c1)
	if tr.HostTrack(1, c2) != h {
		t.Error("HostTrack changed identity on reattach")
	}
}

// TestSinkOrder: concurrent adds in scrambled order still export
// sorted by (Experiment, Trial, Label) — worker count cannot reorder
// the file.
func TestSinkOrder(t *testing.T) {
	in := []*Trace{
		{Experiment: "b", Trial: 1},
		{Experiment: "a", Trial: 1, Label: "z"},
		{Experiment: "a", Trial: 1, Label: "m"},
		{Experiment: "a", Trial: 0, Label: "z"},
		{Experiment: "b", Trial: 0},
	}
	s := &Sink{}
	var wg sync.WaitGroup
	for _, tr := range in {
		wg.Add(1)
		go func(tr *Trace) {
			defer wg.Done()
			s.Add(tr)
		}(tr)
	}
	wg.Wait()

	got := s.Traces()
	var keys []string
	for _, tr := range got {
		keys = append(keys, tr.Experiment+string(rune('0'+tr.Trial))+tr.Label)
	}
	want := []string{"a0z", "a1m", "a1z", "b0", "b1"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("sink order = %v, want %v", keys, want)
	}
}
