package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"squeezy/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testTrace builds a small fixed trace exercising every event shape:
// fleet instants and gauges, host spans that overlap (forcing a second
// lane), chained cold-start phases, and a counter registry.
func testTrace() *Trace {
	clk := &fakeClock{}
	tr := &Trace{Experiment: "demo", Trial: 1, Label: "cellA"}

	fl := tr.FleetTrack(clk)
	clk.t = sim.Time(1 * sim.Millisecond)
	fl.Instant("dispatch/warm: f0", CatInvoke, I("host", 0))
	fl.Gauge("autoscale/pressure", CatFleet, 0.4)
	fl.Count("invocations", 2)
	clk.t = sim.Time(2 * sim.Millisecond)
	fl.Instant("fault-open: cold-fail", CatFault, I("host", -1), F("mag", 0.5))
	fl.Instant("retry: f1", CatFault, I("retry", 1), I("backoff_ms", 250))
	fl.Count("resil/retries", 1)
	fl.Instant("fault-open: rack-fail", CatFault,
		I("rack", 1), I("zone", 0), F("mag", 1), I("targets", 2))
	fl.Gauge("mem/rack1/committed_gib", CatFleet, 3.5)
	fl.Count("faults/rack_events", 1)

	h := tr.HostTrack(0, clk)
	// Two overlapping spans -> two lanes; a third after both -> lane 0.
	h.SpanAt("cold/container: f0", CatInvoke, sim.Time(1*sim.Millisecond), 4*sim.Millisecond)
	h.SpanAt("cold/container: f1", CatInvoke, sim.Time(2*sim.Millisecond), 2*sim.Millisecond)
	h.SpanAt("cold/init: f0", CatInvoke, sim.Time(5*sim.Millisecond), 1*sim.Millisecond)
	clk.t = sim.Time(6 * sim.Millisecond)
	h.Instant("done-cold: f0", CatInvoke, F("latency_ms", 5))
	h.Count("cold_starts", 2)
	return tr
}

func testRunner() []RunnerSpan {
	return []RunnerSpan{
		{Worker: 0, Name: "demo/1/cellA", Start: 2 * time.Millisecond,
			Wait: 2 * time.Millisecond, Dur: 10 * time.Millisecond},
		{Worker: 1, Name: "demo/1/cellB", Dur: 5 * time.Millisecond},
	}
}

// TestWriteTraceGolden pins the exported byte stream. Regenerate with
//
//	go test ./internal/obs -run Golden -update
//
// after an intentional format change, and eyeball the diff.
func TestWriteTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []*Trace{testTrace()}, testRunner()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace JSON drifted from golden file; rerun with -update and review:\n%s", buf.String())
	}
}

func TestWriteMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, []*Trace{testTrace()}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("metrics JSON drifted from golden file; rerun with -update and review:\n%s", buf.String())
	}
}

// TestWriteTraceDeterministic: two exports of the same data are
// byte-identical (map args round-trip through encoding/json's sorted
// keys).
func TestWriteTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	traces := []*Trace{testTrace()}
	runner := testRunner()
	if err := WriteTrace(&a, traces, runner); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&b, traces, runner); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of the same trace differ")
	}
}

// traceEvent is the subset of fields the lane test inspects.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

func decodeEvents(t *testing.T, data []byte) []traceEvent {
	t.Helper()
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.TraceEvents
}

// TestLanePartitioning: overlapping spans land on distinct lanes of
// the same track group; within a lane, spans never overlap — the
// invariant the Chrome trace importer needs to render flat spans.
func TestLanePartitioning(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []*Trace{testTrace()}, nil); err != nil {
		t.Fatal(err)
	}
	type lane struct{ pid, tid int }
	ends := map[lane]float64{}
	groups := map[int]bool{}
	for _, e := range decodeEvents(t, buf.Bytes()) {
		if e.Ph != "X" {
			continue
		}
		l := lane{e.Pid, e.Tid}
		if e.Ts < ends[l] {
			t.Errorf("span %q at ts=%v overlaps previous span on tid %d (ends %v)", e.Name, e.Ts, e.Tid, ends[l])
		}
		ends[l] = e.Ts + e.Dur
		groups[e.Tid/laneStride] = true
	}
	// The two overlapping container spans need two lanes on host 0
	// (group 1): tids 100 and 101.
	if _, ok := ends[lane{1, laneStride}]; !ok {
		t.Error("no span on host lane 0")
	}
	if _, ok := ends[lane{1, laneStride + 1}]; !ok {
		t.Error("overlapping spans were not split onto a second lane")
	}
}

// TestLaneOverflow: more concurrent spans than laneStride allows all
// export (sharing the last lane) rather than being dropped.
func TestLaneOverflow(t *testing.T) {
	clk := &fakeClock{}
	tr := &Trace{Experiment: "over"}
	h := tr.HostTrack(0, clk)
	const n = laneStride + 20
	for i := 0; i < n; i++ {
		h.SpanAt("s", CatInvoke, 0, sim.Duration(i+1)*sim.Millisecond)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []*Trace{tr}, nil); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, e := range decodeEvents(t, buf.Bytes()) {
		if e.Ph == "X" {
			spans++
			if e.Tid < laneStride || e.Tid >= 2*laneStride {
				t.Errorf("span escaped host 0's tid range: %d", e.Tid)
			}
		}
	}
	if spans != n {
		t.Errorf("exported %d spans, want %d (overflow must not drop data)", spans, n)
	}
}
