#!/bin/sh
# layer_profile.sh — CPU-profile squeezyctl on the named experiments and
# write each simulator layer's share of the profiled CPU as JSON.
#
# Usage: scripts/layer_profile.sh OUT.json [squeezyctl flags] EXPERIMENT...
#   e.g. scripts/layer_profile.sh diurnal.json -quick -days 1 cluster-diurnal
#
# Run it from the repository root. It builds squeezyctl, runs it once
# with -cpuprofile (tables go to /dev/null), and decodes the profile
# with perfbench/attrib.py, the decoder perfbench's traced runs use: a
# layer is a package under squeezy/internal, each sample is charged to
# the innermost such frame on its stack, and samples with no such frame
# (GC workers, the scheduler) go to "runtime". OUT.json holds the
# profiled CPU, the process's own user+sys CPU for comparison, its peak
# resident set (ru_maxrss, in MiB), and per layer its CPU seconds and
# share of the profiled CPU, largest first.
# It needs only the Go toolchain and python3.
set -eu
if [ $# -lt 2 ]; then
    sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
out="$1"
shift

dir=$(mktemp -d "${TMPDIR:-/tmp}/layer_profile.XXXXXX")
trap 'rm -rf "$dir"' EXIT
go build -o "$dir/squeezyctl" ./cmd/squeezyctl

PYTHONDONTWRITEBYTECODE=1 python3 - "$dir" "$out" "$@" <<'EOF'
import json, os, subprocess, sys

sys.path.insert(0, "perfbench")
import attrib

dir, out, args = sys.argv[1], sys.argv[2], sys.argv[3:]
prof = os.path.join(dir, "cpu.pprof")
cmd = [os.path.join(dir, "squeezyctl"), "-cpuprofile", prof, "-format", "json", "-o", os.devnull] + args
proc = subprocess.Popen(cmd)
_, status, usage = os.wait4(proc.pid, 0)
if status != 0:
    sys.exit(f"layer_profile: squeezyctl {' '.join(args)} exited with status {os.waitstatus_to_exitcode(status)}")
with open(prof, "rb") as f:
    layers, total = attrib.attribute(f.read())
if total <= 0:
    sys.exit("layer_profile: the profile holds no samples; profile a longer run")
result = {
    "args": args,
    "process_cpu_s": usage.ru_utime + usage.ru_stime,
    # Linux reports ru_maxrss in KiB.
    "process_peak_rss_mib": usage.ru_maxrss / 1024,
    "profile_cpu_s": total,
    "layers": {name: {"cpu_s": cpu, "share": cpu / total}
               for name, cpu in sorted(layers.items(), key=lambda kv: (-kv[1], kv[0]))},
}
with open(out, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
top = ", ".join(f"{n} {l['share']:.0%}" for n, l in list(result["layers"].items())[:5])
print(f"wrote {out}: {total:.2f} s profiled of {result['process_cpu_s']:.2f} s CPU, "
      f"peak RSS {result['process_peak_rss_mib']:.0f} MiB; {top}", file=sys.stderr)
EOF
