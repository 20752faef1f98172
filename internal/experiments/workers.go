package experiments

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Adaptive worker sizing: `-parallel 0` means "use the machine", but
// every worker owns a pooled World whose arena cache grows to the
// largest kernel it has simulated — a 64 GiB-span VM's population
// bitmap, buddy head bitmaps, and region counters, plus recycled vmm.VMs
// and scheduler arenas. On memory-tight hosts, GOMAXPROCS worlds can
// push RSS past what the box wants, so the default worker count is
// capped by a memory budget: at most budget/WorldMemEstimateBytes
// workers, never fewer than one. An explicit `-parallel N` is always
// honored as given.

// WorldMemEstimateBytes is the per-world RSS estimate behind the cap:
// an upper bound on what one more worker adds to a full-protocol run's
// peak RSS. That is a world holding the full protocol's largest arena
// set plus its live cell: the 64 GiB-span fig6/fig7 kernels' bitmaps,
// region counters and zone structs, the scheduler arena, the recycled
// FuncVM/vmm state of the fleet sweeps (one pool for all of a fleet's
// hosts), and the garbage the Go heap lets grow before each
// collection. Measured by scripts/parallel_wall.sh as the increase in
// ru_maxrss of `squeezyctl -format json all` from -parallel 1 to
// -parallel 2 on a 2-core Xeon @ 2.1 GHz (go1.24): four alternated
// pairs read 487 → 659, 466 → 667, 478 → 638 and 476 → 696 MiB
// (+160 to +220 MiB). The bound sits above the largest increment.
const WorldMemEstimateBytes = 384 << 20

// AutoWorkers returns the worker count a `-parallel 0` run should use:
// GOMAXPROCS, capped so that workers × WorldMemEstimateBytes fits in
// budgetBytes. budgetBytes < 0 means "detect": the currently available
// memory (MemAvailable on Linux, clamped by the process's cgroup
// limit in containers); budgetBytes == 0 disables the cap.
func AutoWorkers(budgetBytes int64) int {
	if budgetBytes < 0 {
		budgetBytes = availableMemBytes()
	}
	return workersForBudget(runtime.GOMAXPROCS(0), budgetBytes)
}

// workersForBudget is the pure capping rule: min(procs,
// budget/estimate), at least 1; budget 0 means uncapped.
func workersForBudget(procs int, budgetBytes int64) int {
	if procs < 1 {
		procs = 1
	}
	if budgetBytes <= 0 {
		return procs
	}
	fit := int(budgetBytes / WorldMemEstimateBytes)
	if fit < 1 {
		fit = 1
	}
	if fit < procs {
		return fit
	}
	return procs
}

// availableMemBytes reports the memory this process can actually
// grow into: the host's reclaimable-free memory (MemAvailable from
// /proc/meminfo) clamped by any cgroup memory limit — in a container,
// /proc/meminfo describes the host, and sizing workers to it gets the
// run OOM-killed by the much smaller cgroup. Returns 0 — "unknown,
// don't cap" — when the platform exposes neither.
func availableMemBytes() int64 {
	avail := memAvailableBytes()
	limit := cgroupMemLimitBytes()
	switch {
	case avail == 0:
		return limit
	case limit != 0 && limit < avail:
		return limit
	default:
		return avail
	}
}

// memAvailableBytes reads MemAvailable from /proc/meminfo, 0 on any
// failure.
func memAvailableBytes() int64 {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "MemAvailable:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kib, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kib << 10
	}
	return 0
}

// cgroupMemLimitBytes reads the process's cgroup memory limit
// (v2 memory.max, then v1 memory.limit_in_bytes), 0 when unlimited,
// absent, or implausibly large (kernels report "no limit" as a huge
// page-rounded number).
func cgroupMemLimitBytes() int64 {
	for _, path := range []string{
		"/sys/fs/cgroup/memory.max",
		"/sys/fs/cgroup/memory/memory.limit_in_bytes",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		if s == "max" {
			continue
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n <= 0 || n >= 1<<60 {
			continue
		}
		return n
	}
	return 0
}
