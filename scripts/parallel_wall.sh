#!/bin/sh
# parallel_wall.sh — measure the full-protocol `all` wall clock and peak
# RSS serially and at one worker per core, and emit a JSON fragment in
# BENCH_NNN.json's ci_measured format.
#
# Usage: scripts/parallel_wall.sh [output.json] [pairs]
#
# It runs `squeezyctl -format json all` in `pairs` (default 3)
# alternated pairs, -parallel 1 then -parallel $(nproc), and reports
# the best wall of each worker count, their ratio, and every run's
# peak RSS: the child's ru_maxrss, read with python3's
# resource.getrusage. The per-pair RSS increment is what one more
# world adds to peak RSS, the measurement behind
# experiments.WorldMemEstimateBytes (run 4 pairs on a 2-core host).
# Run on the 2-core reference host, this is the measured 2-worker wall
# recorded in BENCH_006.json; CI runs it on its runners and uploads the
# result with the bench-point artifact. Compare points only between
# hosts with the same core count.
set -eu
out="${1:-parallel_wall.json}"
pairs="${2:-3}"

bin="${TMPDIR:-/tmp}/squeezyctl-bench"
go build -o "$bin" ./cmd/squeezyctl

# run W prints "wall_ms peak_rss_mib" of one `all` run at -parallel W.
run() {
    python3 - "$bin" "$1" <<'EOF'
import resource, subprocess, sys, time
start = time.monotonic()
subprocess.run([sys.argv[1], "-format", "json", "-parallel", sys.argv[2],
                "-o", "/dev/null", "all"], check=True)
wall_ms = int((time.monotonic() - start) * 1000)
# The only child this process waited for is the run itself.
print(wall_ms, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024)
EOF
}

cores=$(nproc 2>/dev/null || echo 1)
w1="" wn="" rss1="" rssn="" incr=""
i=0
while [ "$i" -lt "$pairs" ]; do
    set -- $(run 1)
    ms1=$1 r1=$2
    set -- $(run "$cores")
    msn=$1 rn=$2
    if [ -z "$w1" ] || [ "$ms1" -lt "$w1" ]; then w1=$ms1; fi
    if [ -z "$wn" ] || [ "$msn" -lt "$wn" ]; then wn=$msn; fi
    rss1="${rss1:+$rss1, }$r1"
    rssn="${rssn:+$rssn, }$rn"
    incr="${incr:+$incr, }$((rn - r1))"
    i=$((i + 1))
done

cat > "$out" <<EOF
{
  "ci_measured": {
    "note": "$pairs alternated pairs of 'squeezyctl -format json all' at -parallel 1 then -parallel host_cores: best wall of each (workers_1_s, workers_n_s) and every run's peak RSS (child ru_maxrss, MiB), in pair order",
    "host_cores": $cores,
    "workers_1_s": $(awk "BEGIN{printf \"%.2f\", $w1/1000}"),
    "workers_n_s": $(awk "BEGIN{printf \"%.2f\", $wn/1000}"),
    "speedup": $(awk "BEGIN{printf \"%.2f\", $w1/$wn}"),
    "workers_1_peak_rss_mib": [$rss1],
    "workers_n_peak_rss_mib": [$rssn],
    "rss_increment_mib": [$incr]
  }
}
EOF
echo "wrote $out (workers_1=${w1}ms workers_${cores}=${wn}ms on $cores cores; peak RSS MiB 1: $rss1; $cores: $rssn)" >&2
