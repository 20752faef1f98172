#!/usr/bin/env python3
"""The repository benchmark: host time to regenerate the simulator's tables.

Run from the repository root:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 60 --trace 0

It builds the perfbench harness (main.go) from the checkout's source into
.bench_build/, then repeats the workload until --seconds is used up. One
repetition runs the workload once for each seed of POOL, each in a fresh
process, in an order --seed rotates. Every process's tables are checked
against the digest recorded in digests.json; a repetition with a process
that crashes or produces other tables counts as failed and never toward
timing.

With --trace 0 the last stdout line reports the end-to-end metrics, each
the median over the passing repetitions. With --trace 1 the run makes one
plain and one CPU-profiled repetition and reports the per-layer metrics.
Lines before the last carry the host provenance and informational output.

    python3 perfbench/run.py --record

re-records digests.json from the current code (every workload at the pool
and held-out seeds), and checks that 1 and 2 workers give the same tables.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import attrib  # noqa: E402

WORKLOADS = ("fleet", "paper-figs")
WORKERS = 2
# A repetition covers every POOL seed, so every run does the same
# simulated work and the run-to-run spread is host noise only: the cost
# of the quick fault sweeps moves by tens of percent from one seed to the
# next.
# Each seed gets its own process because a process's heap after one seed
# changes the next seed's peak RSS. HELD_OUT is never timed; --record
# checks its tables too.
POOL = (1, 2)
HELD_OUT = 3
PROC_TIMEOUT_S = 120
LAYERS = ("balloon", "buddy", "cluster", "core", "costmodel", "cpu", "experiments",
          "faas", "fault", "guestos", "hostmem", "mem", "obs", "sim", "stats", "trace",
          "units", "virtiomem", "vmm", "workload")
SUMMED = ("wall_s", "cpu_s", "cells", "cell_wait_s", "cell_wall_s", "floor_model_s",
          "serial_wall_s", "shard_wall_s", "slowest_shard_s", "mean_shard_s", "alloc_mib",
          "gc_cycles")
# Paper anchors the cost model is calibrated against (internal/costmodel).
ANCHORS = {
    "virtio-mem 512 MiB (ms)": 617.0,
    "virtio-mem 2 GiB (ms)": 2500.0,
    "squeezy 2 GiB (ms)": 127.0,
    "balloon / virtio-mem": 2.34,
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def go_env(build_dir):
    """Keep the Go toolchain's caches and scratch files in the checkout."""
    env = dict(os.environ)
    for k in ("GOFLAGS", "GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS"):
        env.pop(k, None)
    sub = {"GOCACHE": "go-cache", "GOPATH": "gopath", "GOMODCACHE": "gopath/pkg/mod",
           "TMPDIR": "tmp", "XDG_CONFIG_HOME": "config"}
    for k, d in sub.items():
        env[k] = os.path.join(build_dir, d)
        os.makedirs(env[k], exist_ok=True)
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", GOENV="off")
    return env


def build(root, build_dir, env):
    binary = os.path.join(build_dir, "perfbench")
    r = subprocess.run(["go", "build", "-o", binary, "."], cwd=os.path.join(root, "perfbench"),
                       env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("build failed")
    return binary


def run_proc(binary, env, workload, seed, workers, profile):
    """Run the workload at one seed in a fresh process; None if it failed."""
    cmd = [binary, "-workload", workload, "-seed", str(seed), "-workers", str(workers)]
    if profile:
        cmd += ["-cpuprofile", profile]
    spawn_ns = time.time_ns()
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(PROC_TIMEOUT_S, os.kill, (p.pid, signal.SIGKILL))
    timer.start()
    out = p.stdout.read()
    p.stdout.close()
    timer.cancel()
    timer.join()
    # wait4, not wait: it returns this child's own CPU time and peak RSS.
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        print(f"perfbench: {workload} seed {seed}: exit {p.returncode}", file=sys.stderr)
        return None
    res = json.loads(out.decode().splitlines()[-1])
    res.update(wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime, peak_rss_mib=ru.ru_maxrss / 1024,
               setup_s=(res["first_cell_unix_ns"] - spawn_ns) / 1e9, profile=profile)
    return res


def run_rep(binary, env, workload, seeds, want, workers=WORKERS, profile_dir=None):
    """One repetition: the workload at every seed, each in its own process.
    Returns the processes' results combined, or None if any failed or
    produced tables other than the recorded ones (want: seed -> digest)."""
    parts = []
    for seed in seeds:
        profile = profile_dir and os.path.join(profile_dir, f"{workload}-{seed}.pprof")
        r = run_proc(binary, env, workload, seed, workers, profile)
        if r is None:
            return None
        if want is not None and r["digest"] != want[str(seed)]:
            print(f"perfbench: {workload} seed {seed}: table digest {r['digest']} "
                  f"!= recorded {want[str(seed)]}", file=sys.stderr)
            return None
        parts.append(r)
    rep = {k: sum(p[k] for p in parts) for k in SUMMED}
    rep["counts"] = {k: sum(p["counts"][k] for p in parts) for k in parts[0]["counts"]}
    rep["peak_rss_mib"] = max(p["peak_rss_mib"] for p in parts)
    rep["setups"] = [p["setup_s"] for p in parts]
    rep["parts"] = parts
    return rep


def host_info(proc):
    """Provenance of a result: points from different hosts never compare."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "num_cpu": proc["num_cpu"],
            "go_version": proc["go_version"], "GOMAXPROCS": proc["gomaxprocs"],
            "workers": proc["workers"]}


def end_to_end(reps):
    med = lambda k: statistics.median(r[k] for r in reps)
    return {
        "wall_s": {"value": med("wall_s"), "unit": "s"},
        "cpu_s": {"value": med("cpu_s"), "unit": "s"},
        "peak_rss_mib": {"value": med("peak_rss_mib"), "unit": "MiB"},
        # Every process sets up once; the median is over all of them.
        "setup_s": {"value": statistics.median(s for r in reps for s in r["setups"]), "unit": "s"},
    }


def per_layer(plain, traced):
    layers, total = {}, 0.0
    for p in traced["parts"]:
        with open(p["profile"], "rb") as f:
            got, t = attrib.attribute(f.read())
        total += t
        for k, v in got.items():
            layers[k] = layers.get(k, 0.0) + v
    if abs(sum(layers.values()) - total) > 0.05 * total:
        raise ValueError("layer attribution does not sum to the profiled CPU")
    m = {f"{l}.cpu_s": (layers.pop(l, 0.0), "s") for l in LAYERS}
    m["runtime.gc_cpu_s"] = (layers.pop(attrib.NO_REPO_FRAME, 0.0), "s")
    m["other.cpu_s"] = (sum(layers.values()), "s")  # packages added after LAYERS was written
    inv = plain["counts"]["invocations"]
    m.update({
        "profile.cpu_s": (total, "s"),
        "profile.overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
        "cluster.serial_wall_s": (plain["serial_wall_s"], "s"),
        "cluster.shard_wall_s": (plain["shard_wall_s"], "s"),
        "cluster.shard_skew": (plain["slowest_shard_s"] / plain["mean_shard_s"]
                               if plain["mean_shard_s"] else 0.0, "ratio"),
        "experiments.cells": (plain["cells"], "count"),
        "experiments.cell_wait_s": (plain["cell_wait_s"], "s"),
        "experiments.cell_wall_s": (plain["cell_wall_s"], "s"),
        "experiments.floor_model_s": (plain["floor_model_s"], "s"),
        "experiments.floor_gap": (plain["wall_s"] / plain["floor_model_s"], "ratio"),
        "runtime.alloc_mib": (plain["alloc_mib"], "MiB"),
        "runtime.gc_cycles": (plain["gc_cycles"], "count"),
        "cluster.invocations": (inv, "count"),
        "cluster.host_us_per_inv": (plain["cpu_s"] * 1e6 / inv if inv else 0.0, "us"),
        "cluster.sim_inv_per_s": (inv / plain["wall_s"], "1/s"),
        "faas.cold_starts": (plain["counts"]["cold_starts"], "count"),
        "cluster.retries": (plain["counts"]["retries"], "count"),
        "cluster.hedges": (plain["counts"]["hedges"], "count"),
        "cluster.paced": (plain["counts"]["paced"], "count"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def model_accuracy(fig5):
    """Simulated fig5 latencies against the paper's anchors. Informational:
    a performance change must leave them byte-identical, so they are not
    gated here."""
    virtio, balloon = fig5["virtio-mem"], fig5["balloon"]
    ratio = statistics.geometric_mean(balloon[s] / virtio[s] for s in virtio)
    sim = dict(zip(ANCHORS, (virtio["512"], virtio["2048"], fig5["squeezy"]["2048"], ratio)))
    return {k: {"paper": ANCHORS[k], "simulated": round(v, 3),
                "error_pct": round(100 * (v - ANCHORS[k]) / ANCHORS[k], 1)} for k, v in sim.items()}


def measure(binary, env, workload, seeds, want, seconds, trace, build_dir):
    attempted, passed = 0, []

    def rep(**kw):
        nonlocal attempted
        attempted += 1
        r = run_rep(binary, env, workload, seeds, want, **kw)
        if r is not None:
            passed.append(r)
        return r

    if trace:
        plain, traced = rep(), rep(profile_dir=os.path.join(build_dir, "tmp"))
        return attempted, passed, per_layer(plain, traced) if plain and traced else {}
    start = time.perf_counter()
    while True:
        rep()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / attempted > seconds:
            break
    return attempted, passed, end_to_end(passed) if passed else {}


def record(binary, env, path):
    """Record every workload's digests at the pool and held-out seeds, and
    check that 1 and 2 workers produce the same tables."""
    seeds = POOL + (HELD_OUT,)
    digests = {}
    for w in WORKLOADS:
        runs = [run_rep(binary, env, w, seeds, None, workers=n) for n in (WORKERS, 1)]
        if None in runs:
            fail(f"{w} failed")
        got = [{str(p["seed"]): p["digest"] for p in r["parts"]} for r in runs]
        if got[0] != got[1]:
            fail(f"{w}: 1-worker tables differ from {WORKERS}-worker tables")
        digests[w] = got[0]
        print(f"{w}: seeds {seeds}: 1 and {WORKERS} workers give the same tables")
    with open(path, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="re-record digests.json")
    args = ap.parse_args()
    if not args.record and not args.workload:
        fail("--workload is required")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal", "experiments"))):
        fail("run from the root of a squeezy checkout (go.mod and internal/ not found)")
    build_dir = os.path.join(root, ".bench_build")
    env = go_env(build_dir)
    binary = build(root, build_dir, env)
    env["GOMAXPROCS"] = str(WORKERS)
    digest_path = os.path.join(HERE, "digests.json")
    if args.record:
        record(binary, env, digest_path)
        return

    with open(digest_path) as f:
        want = json.load(f)[args.workload]
    k = (args.seed - 1) % len(POOL)
    seeds = POOL[k:] + POOL[:k]
    attempted, passed, metrics = measure(binary, env, args.workload, seeds, want,
                                         args.seconds, args.trace, build_dir)
    if passed:
        first = passed[0]
        print("host " + json.dumps(host_info(first["parts"][0])))
        print("reps " + json.dumps({"seeds": seeds, "wall_s": [round(r["wall_s"], 4) for r in passed]}))
        print("floor " + json.dumps({"floor_model_s": first["floor_model_s"], "wall_s": first["wall_s"],
                                     "gap": first["wall_s"] / first["floor_model_s"]}))
        fig5 = next((p["fig5"] for p in first["parts"] if p["seed"] == 1 and p.get("fig5")), None)
        if fig5:
            print("model-accuracy seed 1 (informational, not gated) " + json.dumps(model_accuracy(fig5)))
    failed = attempted - len(passed)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
