#!/bin/sh
# alloc_gate.sh — fail when any experiment's allocations grew by more
# than 2% between two benchmark points written by scripts/bench_json.sh.
#
# Usage: scripts/alloc_gate.sh BASE.json HEAD.json
#
# allocs/op and B/op repeat to well under 1% from run to run, unlike
# wall time, so they can gate a change where ns/op cannot: the gate
# fails (exit 1) when an experiment's allocs_per_op or bytes_per_op in
# HEAD exceeds BASE by more than 2%. ns/op is printed beside them for
# information only. A key BASE lacks (a base older than the key, or
# the empty {} CI writes when the base cannot be benchmarked) is
# skipped with a message; experiments missing on either side are
# listed and skipped. It needs only python3.
set -eu
if [ $# -ne 2 ]; then
    sed -n '5p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi

PYTHONDONTWRITEBYTECODE=1 python3 - "$1" "$2" <<'PY'
import json, sys

LIMIT = 0.02
base_path, head_path = sys.argv[1], sys.argv[2]
with open(base_path) as f:
    base = json.load(f)
with open(head_path) as f:
    head = json.load(f)

failed = []
for key, unit in (("allocs_per_op", "allocs/op"), ("bytes_per_op", "B/op")):
    if not isinstance(base.get(key), dict):
        print(f"alloc_gate: {base_path} has no {key}; skipping the {unit} gate")
        continue
    if not isinstance(head.get(key), dict):
        print(f"alloc_gate: {head_path} has no {key}")
        failed.append(key)
        continue
    b, h = base[key], head[key]
    print(f"{'experiment':<22} {'base ' + unit:>16} {'head ' + unit:>16} {'change':>8}")
    for name in sorted(set(b) | set(h)):
        bv, hv = b.get(name), h.get(name)
        if bv is None or hv is None:
            print(f"{name:<22} {str(bv):>16} {str(hv):>16}  (missing on one side; skipped)")
            continue
        change = (hv - bv) / bv if bv > 0 else (0.0 if hv == 0 else float("inf"))
        mark = ""
        if change > LIMIT:
            failed.append(f"{name} {unit}")
            mark = f"  FAIL: grew more than {LIMIT:.0%}"
        print(f"{name:<22} {bv:>16} {hv:>16} {change:>+8.2%}{mark}")

bns, hns = base.get("ns_per_op") or {}, head.get("ns_per_op") or {}
shared = sorted(set(bns) & set(hns))
if shared:
    print("wall time, for information only (it is not gated):")
    for name in shared:
        print(f"{name:<22} {bns[name] / 1e9:>10.3f} s {hns[name] / 1e9:>10.3f} s")

if failed:
    print("alloc_gate: allocation regression in: " + ", ".join(failed), file=sys.stderr)
    sys.exit(1)
print("alloc_gate: ok")
PY
