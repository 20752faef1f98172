// Command squeezyctl runs the paper's experiments through the
// experiment registry and emits each figure's table as aligned text,
// JSON, or CSV.
//
// Usage:
//
//	squeezyctl [flags] list
//	squeezyctl [flags] run <experiment>...
//	squeezyctl [flags] all
//
// A bare experiment name is accepted as shorthand for `run`, so the
// historical `squeezyctl fig6` invocation still works.
//
// Flags:
//
//	-quick       shrink workloads for a fast smoke run
//	-seed N      base seed (default 1); trial t runs under a
//	             splitmix-derived TrialSeed(seed, t)
//	-trials N    run each experiment N times under derived seeds
//	-parallel N  worker-pool size; output is byte-identical to
//	             -parallel 1. 0 (the default) uses GOMAXPROCS capped by
//	             the -maxworldmem budget
//	-maxworldmem B  memory budget for -parallel 0 worker sizing (e.g.
//	             4GiB, 512MiB, or bytes); default: the host's available
//	             memory; 0 disables the cap
//	-format F    text, json, or csv
//	-o FILE      write output to FILE instead of stdout
//	-cellstats   print per-cell wall-clock timings to stderr after the
//	             run (cells are the executor's scheduling unit: each
//	             runs start to finish on one worker); -cellstats=json
//	             emits the same numbers plus the parallel-floor rule as
//	             JSON on stderr
//	-simtrace FILE  record a simulation trace and write it as Chrome
//	             trace-event JSON (open at https://ui.perfetto.dev): one
//	             process per cell with a fleet/dispatcher track and one
//	             track per host on simulated time, plus a wall-clock
//	             runner process with the executor's cell spans. Tracing
//	             never changes results; tables stay byte-identical.
//	-metrics FILE   dump each traced cell's counter registry (cold
//	             starts, warm hits by tier, re-placements, pages
//	             reclaimed/stranded per backend, autoscaler actions) as
//	             JSON
//	-faults S    overlay a fault plan on every fleet experiment cell:
//	             a named scenario (reclaim-degrade, cold-crash,
//	             straggler; none is the empty plan), a rack-level
//	             scenario (rack-fail, zone-degrade, rack-partition —
//	             meaningful only with -topology), or "fuzz" for a
//	             random plan derived from -faultseed. Single-host
//	             experiments ignore it, and so do cluster-resilience
//	             and cluster-domains, which sweep their own fault plans
//	-faultseed N seed for fuzzed fault plans and every host's fault
//	             decision stream (default: -seed)
//	-topology RxZ  overlay a rack/zone topology on every fleet
//	             experiment cell: R racks spread over Z zones (e.g.
//	             -topology 4x2), hosts assigned round-robin. Enables
//	             the rack-level fault scenarios and makes the
//	             blast-radius-aware policies (spread, zone-headroom)
//	             meaningful; a bare R means Z=1. R is at most 1024.
//	             cluster-domains keeps its own topology
//	-sketch      collect every fleet experiment's latency samples in
//	             bounded-memory reservoir sketches instead of exact
//	             retained-value samples. Order statistics are then
//	             accurate to a documented rank-error bound rather than
//	             byte-exact; off (the default) keeps every recorded
//	             table byte-identical
//	-days N      simulated days for the multi-day experiments
//	             (cluster-diurnal); 0 keeps the experiment's default.
//	             At least one simulated minute (1/1440), so the trace
//	             holds invocations; at most 10675: each cell drains to
//	             ten times its trace, and that horizon must fit in
//	             simulated time
//	-cpuprofile FILE  write a pprof CPU profile of the run to FILE
//	-memprofile FILE  write a pprof heap profile at exit to FILE
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"squeezy/internal/experiments"
	"squeezy/internal/fault"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
)

// validFaultScenario accepts the empty string (fault-free), any named
// scenario — host-level or rack-level — or the fuzzed-plan keyword.
func validFaultScenario(name string) bool {
	if name == "" || name == "fuzz" {
		return true
	}
	for _, s := range fault.ScenarioNames() {
		if name == s {
			return true
		}
	}
	for _, s := range fault.DomainScenarioNames() {
		if name == s {
			return true
		}
	}
	return false
}

// maxTopologyRacks bounds -topology's rack count. The experiments use
// at most 4 racks; fleet tracing samples one memory gauge per rack per
// tick and fault fuzzing draws rack indices from 2·R, so an unbounded
// R either runs for hours or overflows.
const maxTopologyRacks = 1024

// maxDays bounds -days. A fleet cell drains to ten times its trace,
// and that horizon must fit in sim.Time's int64 nanoseconds: 10,675
// whole days. Past it the horizon overflows and the run silently
// replays nothing.
const maxDays = math.MaxInt64 / (10 * 24 * int64(sim.Hour))

// minDays bounds a positive -days from below: one simulated minute.
// A shorter trace replays too few invocations to fill a row (1e-14
// days replays none), and its table could not be told from a run
// that lost its trace.
const minDays = float64(sim.Minute) / float64(24*sim.Hour)

// parseTopology parses a -topology value: "RxZ" (racks x zones) or a
// bare "R" (one zone), with R at most maxTopologyRacks. "" means no
// topology.
func parseTopology(s string) (racks, zones int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	r, z := s, ""
	if i := strings.IndexByte(s, 'x'); i >= 0 {
		r, z = s[:i], s[i+1:]
	}
	racks, err = strconv.Atoi(r)
	if err == nil && z != "" {
		zones, err = strconv.Atoi(z)
	}
	if z == "" {
		zones = 1
	}
	if err != nil || racks < 1 || zones < 1 || zones > racks || racks > maxTopologyRacks {
		return 0, 0, fmt.Errorf("bad -topology %q (want RxZ with 1 <= Z <= R <= %d, e.g. 4x2)", s, maxTopologyRacks)
	}
	return racks, zones, nil
}

// cellStatsFlag is the tri-state -cellstats value: "" (off), "text"
// (bare -cellstats), or "json" (-cellstats=json).
type cellStatsFlag struct{ mode string }

func (f *cellStatsFlag) String() string { return f.mode }

func (f *cellStatsFlag) Set(v string) error {
	switch v {
	case "true", "text":
		f.mode = "text"
	case "false", "":
		f.mode = ""
	case "json":
		f.mode = "json"
	default:
		return fmt.Errorf("want -cellstats, -cellstats=text, or -cellstats=json")
	}
	return nil
}

// IsBoolFlag lets a bare -cellstats (no value) select text mode.
func (f *cellStatsFlag) IsBoolFlag() bool { return true }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs the experiments, and
// returns the exit status — 2 for a usage error, 1 for an I/O failure.
// Every argument is validated before the output file is opened or a
// profile started, so a bad flag fails in milliseconds and leaves no
// truncated file behind.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("squeezyctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "shrink workloads for a fast smoke run")
	seed := fs.Uint64("seed", 1, "deterministic base seed")
	trials := fs.Int("trials", 1, "trials per experiment (derived seeds)")
	parallel := fs.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, capped by -maxworldmem)")
	maxWorldMem := fs.String("maxworldmem", "", "memory budget for -parallel 0 worker sizing, e.g. 4GiB (default: available memory; 0 = no cap)")
	format := fs.String("format", "text", "output format: text, json, or csv")
	outPath := fs.String("o", "", "write output to this file instead of stdout")
	var cellStats cellStatsFlag
	fs.Var(&cellStats, "cellstats", "print per-cell wall-clock timings to stderr (=json for machine-readable)")
	simTrace := fs.String("simtrace", "", "write a Chrome/Perfetto trace-event JSON of the run to this file")
	metricsPath := fs.String("metrics", "", "write the per-cell counter registries as JSON to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	faults := fs.String("faults", "", `fault scenario for fleet experiments (a fault.ScenarioNames() name or "fuzz")`)
	faultSeed := fs.Uint64("faultseed", 0, "seed for fuzzed fault plans and fault decision streams (0 = -seed)")
	topology := fs.String("topology", "", "rack/zone topology for fleet experiments, RxZ (e.g. 4x2; empty = flat fleet)")
	sketch := fs.Bool("sketch", false, "bounded-memory reservoir sketches for every fleet experiment's latency samples (tables then rank-error-accurate, not byte-exact)")
	days := fs.Float64("days", 0, "simulated days for the multi-day experiments (cluster-diurnal; 0 = experiment default)")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package already printed the error and usage
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "squeezyctl: "+format+"\n", a...)
		return code
	}

	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}

	var names []string
	switch cmd := fs.Arg(0); cmd {
	case "list", "all":
		if fs.NArg() > 1 {
			// Catch misplaced flags: `squeezyctl all -quick` would
			// otherwise silently run the full protocol.
			fmt.Fprintf(stderr, "squeezyctl: %s takes no arguments (got %q)\n", cmd, fs.Args()[1:])
			fs.Usage()
			return 2
		}
		if cmd == "list" {
			list(stdout)
			return 0
		}
		names = experiments.Names()
	case "run":
		names = fs.Args()[1:]
		if len(names) == 0 {
			fmt.Fprintln(stderr, "squeezyctl: run needs at least one experiment name")
			fs.Usage()
			return 2
		}
	default:
		// Shorthand: treat bare registered names as `run <names>`.
		names = fs.Args()
		for _, n := range names {
			if _, ok := experiments.Get(n); !ok {
				fmt.Fprintf(stderr, "squeezyctl: unknown command or experiment %q\n", n)
				fs.Usage()
				return 2
			}
		}
	}
	// Validate every name before touching the output file: a typo'd
	// `run` name must not truncate an existing -o results file.
	for _, n := range names {
		if _, ok := experiments.Get(n); !ok {
			return fail(2, "unknown experiment %q (see `squeezyctl list`)", n)
		}
	}

	// Validate every flag before opening the output file or starting a
	// profile: a full-protocol `all` takes minutes, and a typo'd flag
	// should fail in milliseconds without truncating anything.
	switch *format {
	case "text", "json", "csv":
	default:
		return fail(2, "unknown format %q (want text, json, or csv)", *format)
	}
	if *trials < 1 {
		return fail(2, "bad -trials %d (want >= 1)", *trials)
	}
	if *parallel < 0 {
		return fail(2, "bad -parallel %d (want >= 0; 0 = GOMAXPROCS)", *parallel)
	}
	if math.IsNaN(*days) || *days < 0 || (*days > 0 && *days < minDays) || *days > float64(maxDays) {
		return fail(2, "bad -days %v (want 0 for the default, or %g <= days <= %d)", *days, minDays, maxDays)
	}
	if !validFaultScenario(*faults) {
		return fail(2, "unknown -faults scenario %q (want %s, %s, or fuzz)",
			*faults, strings.Join(fault.ScenarioNames(), ", "),
			strings.Join(fault.DomainScenarioNames(), ", "))
	}
	topoRacks, topoZones, terr := parseTopology(*topology)
	if terr != nil {
		return fail(2, "%v", terr)
	}
	workers := *parallel
	if workers == 0 {
		budget, perr := parseMemBudget(*maxWorldMem)
		if perr != nil {
			return fail(2, "%v", perr)
		}
		workers = experiments.AutoWorkers(budget)
	}

	out := stdout
	finishOutput := func() error { return nil }
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fail(1, "%v", err)
		}
		bw := bufio.NewWriter(f)
		// Called after encoding: a failed flush (e.g. ENOSPC) must not
		// exit 0 with a truncated results file.
		finishOutput = func() error {
			ferr := bw.Flush()
			cerr := f.Close()
			if ferr == nil {
				ferr = cerr
			}
			return ferr
		}
		out = bw
	}

	// Profiling brackets only the experiment runs, not flag parsing or
	// encoding, so profiles from different PRs compare like for like.
	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(1, "%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(1, "%v", err)
		}
		cpuFile = f
	}

	var sink *obs.Sink
	if *simTrace != "" || *metricsPath != "" {
		sink = &obs.Sink{}
	}
	opts := experiments.Options{
		Seed: *seed, Quick: *quick, Obs: sink,
		FaultScenario: *faults, FaultSeed: *faultSeed,
		TopoRacks: topoRacks, TopoZones: topoZones,
		Sketch: *sketch, Days: *days,
	}
	reports, stats, err := experiments.RunWithCellStats(names, opts, *trials, workers)
	if err == nil {
		switch cellStats.mode {
		case "text":
			printCellStats(stderr, stats)
		case "json":
			if jerr := experiments.EncodeCellStatsJSON(stderr, stats); jerr != nil {
				fmt.Fprintln(stderr, "squeezyctl:", jerr)
			}
		}
	}

	var profErr error
	if cpuFile != nil {
		// A failed close can mean a truncated profile (ENOSPC, NFS);
		// surface it like the memprofile path does.
		pprof.StopCPUProfile()
		profErr = cpuFile.Close()
	}
	if *memProfile != "" {
		f, merr := os.Create(*memProfile)
		if merr == nil {
			runtime.GC() // settle the heap so the profile shows retained memory
			merr = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); merr == nil {
				merr = cerr
			}
		}
		if profErr == nil {
			profErr = merr
		}
	}

	// The experiment error is the primary failure; a broken profile
	// path must not mask it — and must not discard the report either,
	// so the profErr exit waits until the results are written out.
	if err != nil {
		return fail(2, "%v", err)
	}

	switch *format {
	case "text":
		err = experiments.EncodeText(out, reports, *trials)
	case "json":
		err = experiments.EncodeJSON(out, reports)
	case "csv":
		err = experiments.EncodeCSV(out, reports)
	}
	if err == nil {
		err = finishOutput()
	}
	if err != nil {
		return fail(1, "%v", err)
	}
	// Tables are safely written; trace and metrics files follow so a
	// broken -simtrace path cannot cost the results.
	if err := writeObsFiles(sink, *simTrace, *metricsPath, stats); err != nil {
		return fail(1, "%v", err)
	}
	// Only now may a profiling failure surface as the exit status.
	if profErr != nil {
		return fail(1, "%v", profErr)
	}
	return 0
}

// writeObsFiles dumps the collected simulation traces as Chrome
// trace-event JSON (-simtrace, with the runner's wall-clock spans on
// their own track) and the counter registries (-metrics).
func writeObsFiles(sink *obs.Sink, tracePath, metricsPath string, stats []experiments.CellStat) error {
	if sink == nil {
		return nil
	}
	traces := sink.Traces()
	writeFile := func(path string, write func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		err = write(bw)
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if tracePath != "" {
		err := writeFile(tracePath, func(w io.Writer) error {
			return obs.WriteTrace(w, traces, experiments.RunnerSpans(stats))
		})
		if err != nil {
			return err
		}
	}
	if metricsPath != "" {
		err := writeFile(metricsPath, func(w io.Writer) error {
			return obs.WriteMetrics(w, traces)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// parseMemBudget parses a -maxworldmem value: a byte count with an
// optional KiB/MiB/GiB suffix. "" means detect (-1), "0" disables the
// cap.
func parseMemBudget(s string) (int64, error) {
	if s == "" {
		return -1, nil
	}
	mult := int64(1)
	num := s
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}} {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			num = strings.TrimSuffix(s, u.suffix)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	// Reject overflow rather than wrapping: a wrapped negative budget
	// would silently mean "auto-detect", discarding the user's value.
	if err != nil || n < 0 || (mult > 1 && n > (1<<63-1)/mult) {
		return 0, fmt.Errorf("bad -maxworldmem %q (want e.g. 4GiB, 512MiB, or bytes)", s)
	}
	return n * mult, nil
}

// printCellStats writes the per-cell wall-clock table to w (stderr):
// slowest cells first, then per-experiment totals. The batch's
// parallel floor is experiments.ParallelFloor. Timings go to stderr only, so -o
// result files stay byte-identical across runs.
func printCellStats(w io.Writer, stats []experiments.CellStat) {
	sorted := make([]experiments.CellStat, len(stats))
	copy(sorted, stats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Wall > sorted[j].Wall })
	var total time.Duration
	perExp := map[string]time.Duration{}
	for _, s := range stats {
		total += s.Wall
		perExp[s.Experiment] += s.Wall
	}
	// Per-cell walls include any timeslicing between workers, so the
	// total and the floor interpretation are only meaningful when the
	// run was not oversubscribed (workers <= cores; -parallel 1 gives
	// clean per-cell numbers on any box).
	fmt.Fprintf(w, "cells: %d, summed cell wall time %v (== cpu time only if workers <= cores)\n",
		len(stats), total.Round(time.Millisecond))
	if len(sorted) > 0 {
		fmt.Fprintf(w, "slowest cell: %v, parallel floor (max of the slowest cell and summed wall / workers): %v when workers <= cores\n",
			sorted[0].Wall.Round(time.Millisecond), experiments.ParallelFloor(stats).Round(time.Millisecond))
	}
	fmt.Fprintf(w, "%-20s %-8s %-32s %s\n", "experiment", "trial", "cell", "wall")
	for _, s := range sorted {
		fmt.Fprintf(w, "%-20s %-8d %-32s %v\n", s.Experiment, s.Trial, s.Label, s.Wall.Round(time.Millisecond))
	}
	exps := make([]string, 0, len(perExp))
	for e := range perExp {
		exps = append(exps, e)
	}
	sort.Slice(exps, func(i, j int) bool { return perExp[exps[i]] > perExp[exps[j]] })
	fmt.Fprintf(w, "\n%-20s %s\n", "experiment", "total")
	for _, e := range exps {
		fmt.Fprintf(w, "%-20s %v\n", e, perExp[e].Round(time.Millisecond))
	}
}

func list(w io.Writer) {
	tw := bufio.NewWriter(w)
	defer tw.Flush()
	width := 0
	for _, e := range experiments.All() {
		if len(e.Name()) > width {
			width = len(e.Name())
		}
	}
	for _, e := range experiments.All() {
		fmt.Fprintf(tw, "%-*s  %s\n", width, e.Name(), e.Describe())
	}
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintln(w, `usage: squeezyctl [flags] <command>

commands:
  list              list registered experiments
  run <name>...     run the named experiments
  all               run every registered experiment
  <name>...         shorthand for run

flags:`)
	fs.PrintDefaults()
}
