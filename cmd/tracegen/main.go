// Command tracegen synthesizes bursty FaaS invocation traces and prints
// per-minute statistics, the instance-churn analysis of Figure 2, or a
// whole Zipf fleet of traces.
//
// Usage:
//
//	tracegen [-seed N] [-minutes M] [-base RPS] [-burst RPS]
//	         [-burstlen SEC] [-burstgap SEC] [-churn] [-csv] [-events]
//	tracegen -funcs N [-zipf S] ...   # fleet mode (trace.FleetCursors)
//
// In fleet mode -base and -burst are fleet-aggregate rates split across
// functions by Zipf popularity. -csv emits machine-readable per-minute
// counts (minute,invocations or func,minute,invocations) for plotting.
// -events instead streams the exact-replay CSV ("func,t_ns", one row
// per invocation) straight from the generator cursors in O(1) memory;
// trace.OpenCSV replays either layout bit for bit. Every statistic is
// drained from the generator cursors; no trace is materialized.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"squeezy/internal/sim"
	"squeezy/internal/trace"
)

// keepAlive is the idle time after which the -churn analysis evicts an
// instance.
const keepAlive = 5 * sim.Minute

// maxMinutes bounds -minutes: the trace plus the -churn replay's
// keep-alive horizon must fit in sim.Time's int64 nanoseconds.
const maxMinutes = int((math.MaxInt64 - keepAlive) / sim.Minute)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the requested
// statistics to stdout and returns the exit status — 2 for a usage
// error, 1 for an I/O failure. Every flag is validated before any
// output is written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "deterministic seed")
	minutes := fs.Int("minutes", 10, "trace length in minutes")
	base := fs.Float64("base", 0.5, "quiet-period request rate (rps; fleet-aggregate with -funcs)")
	burst := fs.Float64("burst", 20, "in-burst request rate (rps; fleet-aggregate with -funcs)")
	burstLen := fs.Float64("burstlen", 20, "mean burst duration in seconds")
	burstGap := fs.Float64("burstgap", 45, "mean quiet gap between bursts in seconds")
	funcs := fs.Int("funcs", 0, "fleet mode: generate N functions with Zipf popularity")
	zipf := fs.Float64("zipf", 1.1, "fleet popularity exponent (with -funcs)")
	churn := fs.Bool("churn", false, "print instance churn (Figure 2 analysis) instead of rates")
	csvOut := fs.Bool("csv", false, "emit per-minute counts as CSV for plotting")
	events := fs.Bool("events", false, "emit the exact-replay events CSV (func,t_ns), streamed in O(1) memory")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package already printed the error and usage
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "tracegen: "+format+"\n", a...)
		return code
	}

	if *events && *churn {
		return fail(2, "-events emits raw invocations; it cannot be combined with -churn")
	}
	if *minutes < 1 || *minutes > maxMinutes {
		return fail(2, "bad -minutes %d (want 1 <= minutes <= %d)", *minutes, maxMinutes)
	}
	if *burstLen <= 0 || *burstGap <= 0 {
		return fail(2, "-burstlen and -burstgap must be positive")
	}
	if *funcs > 0 && *churn {
		return fail(2, "-churn is a single-trace analysis; it cannot be combined with -funcs")
	}
	dur := sim.Duration(*minutes) * sim.Minute
	bl := sim.Duration(*burstLen * float64(sim.Second))
	bg := sim.Duration(*burstGap * float64(sim.Second))

	var err error
	if *funcs > 0 {
		fcfg := trace.FleetConfig{
			Funcs:         *funcs,
			Duration:      dur,
			ZipfS:         *zipf,
			TotalBaseRPS:  *base,
			TotalBurstRPS: *burst,
			BurstLen:      bl,
			BurstGap:      bg,
		}
		switch {
		case *events:
			_, err = trace.WriteCSV(stdout, trace.NewFleetStream(*seed, fcfg))
		case *csvOut:
			rows := [][]string{}
			for fi, c := range trace.FleetCursors(*seed, fcfg) {
				counts, _ := perMinute(c, *minutes)
				for m, n := range counts {
					rows = append(rows, []string{strconv.Itoa(fi), strconv.Itoa(m), strconv.Itoa(n)})
				}
			}
			err = writeCSV(stdout, []string{"func", "minute", "invocations"}, rows)
		default:
			lens := make([]int, *funcs)
			total := 0
			for fi, c := range trace.FleetCursors(*seed, fcfg) {
				_, lens[fi] = perMinute(c, *minutes)
				total += lens[fi]
			}
			fmt.Fprintf(stdout, "fleet: %d functions, %d invocations over %d minutes\n", *funcs, total, *minutes)
			fmt.Fprintln(stdout, "func   invocations  peak_concurrency@1s")
			for fi, c := range trace.FleetCursors(*seed, fcfg) {
				fmt.Fprintf(stdout, "%4d  %12d  %19d\n", fi, lens[fi], trace.PeakConcurrency(c, sim.Second))
			}
		}
		return status(stderr, err)
	}

	bcfg := trace.BurstyConfig{
		Duration: dur,
		BaseRPS:  *base,
		BurstRPS: *burst,
		BurstLen: bl,
		BurstGap: bg,
	}
	switch {
	case *events:
		_, err = trace.WriteCSV(stdout, trace.NewBursty(*seed, bcfg))
	case *churn:
		points := trace.InstanceChurn(trace.NewBursty(*seed, bcfg), sim.Second, keepAlive, dur)
		if *csvOut {
			rows := [][]string{}
			for _, p := range points {
				rows = append(rows, []string{strconv.Itoa(p.Minute), strconv.Itoa(p.Creations), strconv.Itoa(p.Evictions)})
			}
			err = writeCSV(stdout, []string{"minute", "creations", "evictions"}, rows)
			break
		}
		fmt.Fprintln(stdout, "minute  creations  evictions")
		for _, p := range points {
			fmt.Fprintf(stdout, "%6d  %9d  %9d\n", p.Minute, p.Creations, p.Evictions)
		}
	default:
		counts, total := perMinute(trace.NewBursty(*seed, bcfg), *minutes)
		if *csvOut {
			rows := [][]string{}
			for m, c := range counts {
				rows = append(rows, []string{strconv.Itoa(m), strconv.Itoa(c)})
			}
			err = writeCSV(stdout, []string{"minute", "invocations"}, rows)
			break
		}
		fmt.Fprintf(stdout, "total invocations: %d (peak concurrency %d at 1s exec)\n",
			total, trace.PeakConcurrency(trace.NewBursty(*seed, bcfg), sim.Second))
		fmt.Fprintln(stdout, "minute  invocations")
		for m, c := range counts {
			fmt.Fprintf(stdout, "%6d  %11d\n", m, c)
		}
	}
	return status(stderr, err)
}

// perMinute drains a stream into per-minute invocation counts over the
// first minutes minutes, and returns the stream's total length.
func perMinute(s trace.Stream, minutes int) (counts []int, total int) {
	counts = make([]int, minutes)
	for inv, ok := s.Next(); ok; inv, ok = s.Next() {
		total++
		if m := int(sim.Duration(inv.T) / sim.Minute); m < len(counts) {
			counts[m]++
		}
	}
	return counts, total
}

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	cw.Write(header)
	for _, r := range rows {
		cw.Write(r)
	}
	cw.Flush()
	return cw.Error()
}

// status reports an output error and returns the exit status.
func status(stderr io.Writer, err error) int {
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	return 0
}
