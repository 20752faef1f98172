package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"squeezy/internal/sim"
)

// Chrome trace-event JSON export (the format https://ui.perfetto.dev
// and chrome://tracing load directly).
//
// Layout: each Trace becomes one process (pid 1..N, in the caller's
// order — Sink.Traces hands them over sorted). Within a process, tid
// group 0 is the fleet/dispatcher track and tid group id+1 is host
// id's track, so events appear in fleet-then-host-ID order — the
// deterministic merge order of the rest of the system. The simulator's
// spans are flat (a cold start is consecutive memwait → plug →
// container → init → exec segments, and concurrent instances overlap
// arbitrarily), but the JSON importer requires the slices of one
// thread to nest properly — so each track greedily partitions its
// spans into non-overlapping lanes (tid = group*laneStride + lane):
// one cold start reads as one row, concurrent work stacks into
// parallel rows. Runner self-observability (wall clock, not simulated
// time) lands in one extra process after the simulation processes,
// one thread per pool worker.
//
// Everything emitted is a pure function of the recorded events:
// map-valued fields are marshaled by encoding/json, which sorts keys,
// so the byte stream is deterministic and golden-file testable.

// laneStride separates the tid ranges of adjacent track groups; spans
// needing more concurrent lanes than this share the last lane (the
// viewer may truncate them, the data stays intact).
const laneStride = 100

// RunnerSpan is one wall-clock executor span: a cell as scheduled by
// the experiments runner, with its queue wait. Times are offsets from
// the run's start, not absolute timestamps, so exports are comparable
// across runs.
type RunnerSpan struct {
	Worker     int             // pool worker that ran the cell
	Name       string          // experiment/trial/cell label
	Start      time.Duration   // run start -> cell start
	Wait       time.Duration   // time spent queued before Start
	Dur        time.Duration   // cell wall clock
	ShardWalls []time.Duration // per-shard final-drain walls, if sharded
}

// WriteTrace renders traces (simulated time) and runner spans (wall
// clock) as one Chrome trace-event JSON document.
func WriteTrace(w io.Writer, traces []*Trace, runner []RunnerSpan) error {
	var events []map[string]any
	meta := func(pid, tid int, kind, name string) {
		events = append(events, map[string]any{
			"name": kind, "ph": "M", "pid": pid, "tid": tid,
			"args": map[string]any{"name": name},
		})
	}
	for i, t := range traces {
		pid := i + 1
		name := t.Experiment
		if t.Trial != 0 {
			name = fmt.Sprintf("%s trial %d", name, t.Trial)
		}
		if t.Label != "" {
			name += " · " + t.Label
		}
		meta(pid, 0, "process_name", name+" (sim time)")
		appendTrack(&events, meta, pid, 0, "fleet/dispatcher", t.Fleet().Events())
		for id, h := range t.Hosts() {
			appendTrack(&events, meta, pid, id+1, fmt.Sprintf("host %02d", id), h.Events())
		}
	}
	if len(runner) > 0 {
		appendRunner(&events, meta, len(traces)+1, runner)
	}
	doc := struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}{TraceEvents: events}
	return json.NewEncoder(w).Encode(doc)
}

// appendTrack converts one recorder's events onto the track group
// (pid, base), partitioning spans into non-overlapping lanes.
func appendTrack(events *[]map[string]any, meta func(int, int, string, string), pid, group int, trackName string, evs []Event) {
	if len(evs) == 0 {
		return
	}
	// Spans sorted by start (stable; instants and gauges stay where the
	// sort puts them, on lane 0) so lane assignment is greedy interval
	// partitioning: first lane whose previous span ended by our start.
	order := make([]int, len(evs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return evs[order[a]].Start < evs[order[b]].Start
	})
	var laneEnd []sim.Time
	lane := func(e Event) int {
		if e.Ph != PhSpan {
			return 0
		}
		end := e.Start.Add(e.Dur)
		for l, le := range laneEnd {
			if le <= e.Start {
				laneEnd[l] = end
				return l
			}
		}
		if len(laneEnd) >= laneStride-1 {
			return laneStride - 1 // out of lanes; share the last one
		}
		laneEnd = append(laneEnd, end)
		return len(laneEnd) - 1
	}
	base := group * laneStride
	lanes := 1
	for _, i := range order {
		e := evs[i]
		l := lane(e)
		if l+1 > lanes {
			lanes = l + 1
		}
		m := map[string]any{
			"name": e.Name, "ph": string(e.Ph),
			"ts": simMicros(e.Start), "pid": pid, "tid": base + l,
		}
		if e.Cat != "" {
			m["cat"] = string(e.Cat)
		}
		switch e.Ph {
		case PhSpan:
			m["dur"] = float64(e.Dur) / 1e3
		case PhInstant:
			m["s"] = "t" // thread-scoped instant
		}
		if len(e.Args) > 0 {
			args := make(map[string]any, len(e.Args))
			for _, a := range e.Args {
				args[a.Key] = a.Value()
			}
			m["args"] = args
		}
		*events = append(*events, m)
	}
	for l := 0; l < lanes; l++ {
		name := trackName
		if l > 0 {
			name = fmt.Sprintf("%s ·%d", trackName, l)
		}
		meta(pid, base+l, "thread_name", name)
	}
}

// appendRunner emits the wall-clock runner process: per-worker
// threads, a queue-wait span and a run span per cell.
func appendRunner(events *[]map[string]any, meta func(int, int, string, string), pid int, runner []RunnerSpan) {
	meta(pid, 0, "process_name", "runner (wall clock)")
	for _, rs := range runner {
		tid := rs.Worker + 1
		if rs.Wait > 0 {
			*events = append(*events, map[string]any{
				"name": rs.Name, "cat": "queue", "ph": "X",
				"ts": wallMicros(rs.Start - rs.Wait), "dur": wallMicros(rs.Wait),
				"pid": pid, "tid": tid,
				"args": map[string]any{"state": "queued"},
			})
		}
		args := map[string]any{"wall_ms": float64(rs.Dur) / float64(time.Millisecond)}
		for i, sw := range rs.ShardWalls {
			args[fmt.Sprintf("shard%02d_ms", i)] = float64(sw) / float64(time.Millisecond)
		}
		*events = append(*events, map[string]any{
			"name": rs.Name, "cat": "run", "ph": "X",
			"ts": wallMicros(rs.Start), "dur": wallMicros(rs.Dur),
			"pid": pid, "tid": tid, "args": args,
		})
	}
	seen := map[int]bool{}
	var workers []int
	for _, rs := range runner {
		if !seen[rs.Worker] {
			seen[rs.Worker] = true
			workers = append(workers, rs.Worker)
		}
	}
	sort.Ints(workers)
	for _, wk := range workers {
		meta(pid, wk+1, "thread_name", fmt.Sprintf("worker %d", wk))
	}
}

// simMicros converts simulated nanoseconds to the trace format's
// microsecond timestamps.
func simMicros(t sim.Time) float64 { return float64(t) / 1e3 }

// wallMicros converts a wall-clock duration to microseconds.
func wallMicros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// MetricsEntry is one cell's counter registry in the -metrics dump.
type MetricsEntry struct {
	Experiment string           `json:"experiment"`
	Trial      int              `json:"trial"`
	Cell       string           `json:"cell,omitempty"`
	Counters   map[string]int64 `json:"counters"`
}

// WriteMetrics dumps each trace's merged counter registry as an
// indented JSON array, in trace order. Map keys are sorted by
// encoding/json, so the output is deterministic.
func WriteMetrics(w io.Writer, traces []*Trace) error {
	entries := make([]MetricsEntry, 0, len(traces))
	for _, t := range traces {
		entries = append(entries, MetricsEntry{
			Experiment: t.Experiment, Trial: t.Trial, Cell: t.Label,
			Counters: t.Counters(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(entries)
}
