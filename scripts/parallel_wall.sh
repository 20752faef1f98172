#!/bin/sh
# parallel_wall.sh — measure the full-protocol `all` wall clock serially
# and at one worker per core, and emit a JSON fragment in
# BENCH_NNN.json's ci_measured format.
#
# Usage: scripts/parallel_wall.sh [output.json]
#
# It times `squeezyctl -format json all` at -parallel 1 and at
# -parallel $(nproc), best of three each, and reports both walls and
# their ratio. Run on the 2-core reference host, this is the measured
# 2-worker wall recorded in BENCH_006.json; CI runs it on its runners
# and uploads the result with the bench-point artifact. Compare points
# only between hosts with the same core count.
set -eu
out="${1:-parallel_wall.json}"

bin="${TMPDIR:-/tmp}/squeezyctl-bench"
go build -o "$bin" ./cmd/squeezyctl

measure() {
    w="$1"
    best=""
    for _ in 1 2 3; do
        start=$(date +%s%N)
        "$bin" -format json -parallel "$w" -o /dev/null all
        end=$(date +%s%N)
        ms=$(( (end - start) / 1000000 ))
        if [ -z "$best" ] || [ "$ms" -lt "$best" ]; then best="$ms"; fi
    done
    echo "$best"
}

cores=$(nproc 2>/dev/null || echo 1)
w1=$(measure 1)
wn=$(measure "$cores")

cat > "$out" <<EOF
{
  "ci_measured": {
    "note": "best-of-3 wall clock of 'squeezyctl -format json all' at -parallel 1 and at -parallel host_cores (workers_n_s)",
    "host_cores": $cores,
    "workers_1_s": $(awk "BEGIN{printf \"%.2f\", $w1/1000}"),
    "workers_n_s": $(awk "BEGIN{printf \"%.2f\", $wn/1000}"),
    "speedup": $(awk "BEGIN{printf \"%.2f\", $w1/$wn}")
  }
}
EOF
echo "wrote $out (workers_1=${w1}ms workers_${cores}=${wn}ms on $cores cores)" >&2
