// Command perfbench runs one benchmark workload once through the
// experiments runner and prints one JSON line describing the run: the
// digest of the tables it produced, when its first cell started, the
// runner's per-cell and per-shard walls, Go heap counters, and the sums
// of the table columns that count simulated work.
//
// It is the measured program of the benchmark; run.py builds it, starts
// one fresh process per repetition, times it from outside and checks the
// digest. Usage:
//
//	perfbench -workload fleet -seed 1 -workers 2 [-cpuprofile FILE]
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"squeezy/internal/experiments"
)

// workload is one named batch of experiments: what the runner is asked
// to regenerate, at which protocol and with how many trials.
type workload struct {
	names  []string
	opts   experiments.Options
	trials int
}

// workloads are the benchmark's inputs; README.md says why each exists.
var workloads = map[string]workload{
	"fleet": {
		names: []string{"cluster-diurnal", "cluster-resilience", "cluster-domains", "cluster-elastic"},
		opts:  experiments.Options{Quick: true, Days: 1},
	},
	"paper-figs": {
		names: []string{"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
			"pluglat", "abl-batching", "abl-partition", "abl-policy", "abl-zeroing"},
		trials: 2,
	},
}

// countColumns maps each count metric to the table columns summed into
// it, over every row of every report.
var countColumns = map[string][]string{
	"invocations": {"invocations"},
	"cold_starts": {"cold", "cold_pre", "cold_post"},
	"retries":     {"retries"},
	"hedges":      {"hedges"},
	"paced":       {"paced"},
}

// result is the JSON line perfbench prints. Durations are seconds.
type result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Workers  int    `json:"workers"`
	// Host provenance, as the measured process saw it.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Digest is the SHA-256 of the reports encoded exactly as
	// `squeezyctl -format json` writes them.
	Digest string `json:"digest"`
	// FirstCellUnixNs is the wall-clock instant the first cell started
	// running, so the caller can subtract its own spawn instant.
	FirstCellUnixNs int64   `json:"first_cell_unix_ns"`
	Cells           int     `json:"cells"`
	CellWaitS       float64 `json:"cell_wait_s"`
	CellWallS       float64 `json:"cell_wall_s"`
	FloorModelS     float64 `json:"floor_model_s"`
	SerialWallS     float64 `json:"serial_wall_s"`
	ShardWallS      float64 `json:"shard_wall_s"`
	// SlowestShardS and MeanShardS sum, over sharded cells, the slowest
	// and the mean shard wall; their ratio is the shard skew.
	SlowestShardS float64 `json:"slowest_shard_s"`
	MeanShardS    float64 `json:"mean_shard_s"`
	AllocMiB      float64 `json:"alloc_mib"`
	GCCycles      uint32  `json:"gc_cycles"`
	// Counts holds the countColumns sums; they repeat exactly for a
	// given workload and seed.
	Counts map[string]int64 `json:"counts"`
	// Fig5 is fig5's trial-0 table as (method, size MiB) -> avg ms, for
	// the informational model-accuracy report; nil when fig5 did not run.
	Fig5 map[string]map[string]float64 `json:"fig5,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "experiment base seed")
	workers := flag.Int("workers", 2, "runner worker-pool size")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the runner call to this file")
	flag.Parse()
	if err := run(*name, *seed, *workers, *cpuProfile); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, workers int, cpuProfile string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	opts := wl.opts
	opts.Seed = seed

	var prof *os.File
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		prof = f
	}
	call := time.Now()
	reports, stats, err := experiments.RunWithCellStats(wl.names, opts, wl.trials, workers)
	ret := time.Now()
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	var buf bytes.Buffer
	if err := experiments.EncodeJSON(&buf, reports); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())

	res := result{
		Workload: name, Seed: seed, Workers: workers,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Digest:          hex.EncodeToString(sum[:]),
		FirstCellUnixNs: firstCellStart(call, ret, stats).UnixNano(),
		AllocMiB:        float64(ms.TotalAlloc) / (1 << 20),
		GCCycles:        ms.NumGC,
		Counts:          map[string]int64{},
	}
	res.fillCells(stats)
	for _, r := range reports {
		for metric, cols := range countColumns {
			for _, col := range cols {
				res.Counts[metric] += sumColumn(r.Table, col)
			}
		}
		if r.Experiment == "fig5" && r.Trial == 0 {
			res.Fig5 = fig5Latencies(r.Table)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// firstCellStart places the first cell's start on the wall clock. The
// runner reports cell starts as offsets from its batch start, an
// instant it takes after building every plan and does not return. The
// batch start is recovered from the end instead: the call returns just
// after the last cell ends, so it is ret minus the latest cell end. It
// is never earlier than the call itself.
func firstCellStart(call, ret time.Time, stats []experiments.CellStat) time.Time {
	if len(stats) == 0 {
		return ret
	}
	first, last := stats[0].Start, time.Duration(0)
	for _, s := range stats {
		first = min(first, s.Start)
		last = max(last, s.Start+s.Wall)
	}
	batch := ret.Add(-last)
	if batch.Before(call) {
		batch = call
	}
	return batch.Add(first)
}

// fillCells sets the runner-derived metrics. The serial wall of a
// sharded cell is the part of its wall no shard accounts for: the
// dispatcher and the epoch barrier.
func (res *result) fillCells(stats []experiments.CellStat) {
	var floor time.Duration
	for _, s := range stats {
		res.CellWaitS += s.Wait.Seconds()
		res.CellWallS += s.Wall.Seconds()
		floor = max(floor, experiments.CellFloor(s))
		if len(s.ShardWalls) == 0 {
			continue
		}
		var sum, top time.Duration
		for _, sw := range s.ShardWalls {
			sum += sw
			top = max(top, sw)
		}
		res.ShardWallS += sum.Seconds()
		res.SerialWallS += max(0, s.Wall-sum).Seconds()
		res.SlowestShardS += top.Seconds()
		res.MeanShardS += sum.Seconds() / float64(len(s.ShardWalls))
	}
	res.Cells = len(stats)
	res.FloorModelS = floor.Seconds()
}

// sumColumn sums the integer cells of the named column; a table without
// it contributes 0.
func sumColumn(t *experiments.Table, col string) int64 {
	idx := -1
	for i, h := range t.Header {
		if h == col {
			idx = i
		}
	}
	if idx < 0 {
		return 0
	}
	var n int64
	for _, row := range t.Rows {
		if v, err := strconv.ParseInt(row[idx], 10, 64); err == nil {
			n += v
		}
	}
	return n
}

// fig5Latencies reads fig5's (size, method, avg) columns.
func fig5Latencies(t *experiments.Table) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, row := range t.Rows {
		avg, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			continue
		}
		if out[row[1]] == nil {
			out[row[1]] = map[string]float64{}
		}
		out[row[1]][row[0]] = avg
	}
	return out
}
