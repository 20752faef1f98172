#!/bin/sh
# sim_tracks.sh — copy a squeezyctl -simtrace file keeping only its
# simulated tracks.
#
# Usage: scripts/sim_tracks.sh IN.json OUT.json
#
# A -simtrace file holds one Perfetto process per traced cell, on
# simulated time, plus the "runner (wall clock)" process with the
# cells' host wall times, which differ from run to run. This drops
# that process (its metadata and every event on its pid) and writes
# the rest unchanged in order, so two runs of the same simulation
# compare byte for byte with cmp. It needs only python3.
set -eu
if [ $# -ne 2 ]; then
    sed -n '5p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi

PYTHONDONTWRITEBYTECODE=1 python3 - "$1" "$2" <<'PY'
import json, sys

src, dst = sys.argv[1], sys.argv[2]
with open(src) as f:
    trace = json.load(f)
events = trace["traceEvents"]
wall = {e["pid"] for e in events
        if e.get("ph") == "M" and e.get("name") == "process_name"
        and e.get("args", {}).get("name") == "runner (wall clock)"}
if not wall:
    sys.exit(f"{src}: no runner (wall clock) process; not a squeezyctl -simtrace file?")
trace["traceEvents"] = [e for e in events if e.get("pid") not in wall]
with open(dst, "w") as f:
    json.dump(trace, f, separators=(",", ":"))
    f.write("\n")
PY
