#!/bin/sh
# bench_json.sh — run the full-protocol experiment benchmark once and
# emit one JSON point of the perf trajectory (the BENCH_NNN.json files).
#
# Usage: scripts/bench_json.sh [output.json]
#
# One iteration per registered experiment (-benchtime 1x) keeps the job
# cheap while still timing the exact protocol the paper tables use; the
# point records ns/op, allocs/op and B/op (bytes_per_op) per experiment
# plus the ns and allocs geomeans. Compare two points (e.g. a PR's base
# and head) with any JSON diff, or gate allocation growth with
# scripts/alloc_gate.sh; per-experiment speedup is before_ns / after_ns.
set -eu
out="${1:-bench_point.json}"

go test -bench BenchmarkExperiments -benchtime 1x -benchmem -run '^$' . |
awk -v out="$out" '
  BEGIN { n = 0 }
  /^BenchmarkExperiments\// {
    split($1, parts, "/")
    name = parts[2]
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    names[n] = name; ns[n] = $3
    # With -benchmem the line ends "... X B/op Y allocs/op"; find X, Y.
    allocs[n] = ""; bytes[n] = ""
    for (i = 4; i <= NF; i++) {
      if ($i == "allocs/op") allocs[n] = $(i-1)
      if ($i == "B/op") bytes[n] = $(i-1)
    }
    n++
  }
  END {
    if (n == 0) { print "bench_json.sh: no benchmark output parsed" > "/dev/stderr"; exit 1 }
    printf "{\n  \"benchmark\": \"BenchmarkExperiments\",\n  \"protocol\": \"full\",\n  \"benchtime\": \"1x\",\n  \"ns_per_op\": {\n" > out
    for (i = 0; i < n; i++)
      printf "    \"%s\": %s%s\n", names[i], ns[i], (i < n-1 ? "," : "") > out
    printf "  },\n  \"allocs_per_op\": {\n" > out
    for (i = 0; i < n; i++)
      printf "    \"%s\": %s%s\n", names[i], (allocs[i] == "" ? "null" : allocs[i]), (i < n-1 ? "," : "") > out
    printf "  },\n  \"bytes_per_op\": {\n" > out
    for (i = 0; i < n; i++)
      printf "    \"%s\": %s%s\n", names[i], (bytes[i] == "" ? "null" : bytes[i]), (i < n-1 ? "," : "") > out
    printf "  },\n" > out
    glog = 0; galloc = 0; gac = 0
    for (i = 0; i < n; i++) {
      glog += log(ns[i])
      if (allocs[i] != "" && allocs[i] > 0) { galloc += log(allocs[i]); gac++ }
    }
    printf "  \"geomean_ns\": %.0f,\n", exp(glog / n) > out
    if (gac > 0)
      printf "  \"geomean_allocs\": %.0f\n", exp(galloc / gac) > out
    else
      printf "  \"geomean_allocs\": null\n" > out
    printf "}\n" > out
  }'
echo "wrote $out" >&2
