package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"squeezy/internal/obs"
)

// The tentpole acceptance bar at the runner level: attaching a trace
// sink to a full-registry run changes no output byte, and the sink's
// exported traces are themselves worker-count invariant.

// encodeReports renders reports through every encoder, the same bytes
// squeezyctl writes.
func encodeReports(t *testing.T, reports []Report, trials int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeText(&buf, reports, trials); err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSON(&buf, reports); err != nil {
		t.Fatal(err)
	}
	if err := EncodeCSV(&buf, reports); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObsFullRegistryByteIdentity runs the complete quick registry with
// tracing off and with tracing on at workers {1, 8}, and requires the
// text+JSON+CSV encoding to be byte-identical in all three runs —
// recording must not perturb a single table cell.
func TestObsFullRegistryByteIdentity(t *testing.T) {
	names := Names()
	const trials = 1
	base := Options{Seed: 3, Quick: true}

	off, err := Run(names, base, trials, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeReports(t, off, trials)

	for _, workers := range []int{1, 8} {
		opts := base
		opts.Obs = &obs.Sink{}
		reports, _, err := RunWithCellStats(names, opts, trials, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeReports(t, reports, trials); !bytes.Equal(got, want) {
			t.Fatalf("tracing on at %d workers changed the tables", workers)
		}
		if len(opts.Obs.Traces()) == 0 {
			t.Fatalf("sink collected no traces at %d workers; test is vacuous", workers)
		}
	}
}

// TestObsSinkWorkerInvariance: the collected traces export to identical
// bytes at every worker count — cells land in the sink in scheduling
// order, but Sink.Traces re-sorts and each cell's trace content is a
// pure function of (experiment, trial, cell).
func TestObsSinkWorkerInvariance(t *testing.T) {
	names := []string{"cluster-elastic", "fig5"}
	export := func(workers int) []byte {
		opts := Options{Seed: 1, Quick: true, Obs: &obs.Sink{}}
		_, _, err := RunWithCellStats(names, opts, 1, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		traces := opts.Obs.Traces()
		if err := obs.WriteTrace(&buf, traces, nil); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteMetrics(&buf, traces); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := export(1)
	if len(want) == 0 {
		t.Fatal("empty export")
	}
	for _, workers := range []int{2, 8} {
		if got := export(workers); !bytes.Equal(got, want) {
			t.Fatalf("trace export at %d workers differs from 1 worker (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

// TestObsCellStatsJSONShape: the machine-readable -cellstats=json
// document carries every cell with the floor rule applied.
func TestObsCellStatsJSONShape(t *testing.T) {
	opts := Options{Seed: 1, Quick: true}
	_, stats, err := RunWithCellStats([]string{"cluster-elastic"}, opts, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeCellStatsJSON(&buf, stats); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cells []struct {
			Experiment string    `json:"experiment"`
			Cell       string    `json:"cell"`
			Worker     int       `json:"worker"`
			WallMs     float64   `json:"wall_ms"`
			ShardWalls []float64 `json:"shard_walls_ms"`
			FloorMs    float64   `json:"floor_ms"`
		} `json:"cells"`
		SummedWallMs    float64 `json:"summed_wall_ms"`
		SlowestCellMs   float64 `json:"slowest_cell_ms"`
		ParallelFloorMs float64 `json:"parallel_floor_ms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) != len(stats) {
		t.Fatalf("doc has %d cells, want %d", len(doc.Cells), len(stats))
	}
	workers := map[int]bool{}
	for _, c := range doc.Cells {
		if c.WallMs <= 0 {
			t.Fatalf("cell %s/%s has non-positive wall", c.Experiment, c.Cell)
		}
		if len(c.ShardWalls) > 0 && c.FloorMs > c.WallMs {
			t.Fatalf("cell %s floor %v exceeds wall %v", c.Cell, c.FloorMs, c.WallMs)
		}
		if c.FloorMs > doc.ParallelFloorMs {
			t.Fatalf("cell %s floor %v exceeds parallel floor %v", c.Cell, c.FloorMs, doc.ParallelFloorMs)
		}
		workers[c.Worker] = true
	}
	if doc.ParallelFloorMs <= 0 || doc.ParallelFloorMs > doc.SummedWallMs {
		t.Fatalf("parallel floor %v outside (0, summed %v]", doc.ParallelFloorMs, doc.SummedWallMs)
	}
	// No schedule beats the summed wall spread evenly over the workers
	// that ran it (less the nanosecond the integer division may drop).
	if spread := doc.SummedWallMs / float64(len(workers)); doc.ParallelFloorMs < spread-1e-6 {
		t.Fatalf("parallel floor %v below summed wall / %d workers = %v",
			doc.ParallelFloorMs, len(workers), spread)
	}
	if doc.SlowestCellMs > doc.SummedWallMs {
		t.Fatalf("slowest cell %v exceeds summed wall %v", doc.SlowestCellMs, doc.SummedWallMs)
	}
}

// TestRunnerSpans: CellStats convert to wall-clock runner spans with
// names carrying experiment/trial/cell identity.
func TestRunnerSpans(t *testing.T) {
	opts := Options{Seed: 1, Quick: true}
	_, stats, err := RunWithCellStats([]string{"fig5"}, opts, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	spans := RunnerSpans(stats)
	if len(spans) != len(stats) {
		t.Fatalf("got %d spans for %d stats", len(spans), len(stats))
	}
	seen := map[string]bool{}
	for _, s := range spans {
		if s.Dur <= 0 {
			t.Fatalf("span %q has non-positive duration", s.Name)
		}
		seen[s.Name] = true
	}
	if len(seen) != len(spans) {
		t.Fatalf("span names collide: %d unique of %d", len(seen), len(spans))
	}
}
