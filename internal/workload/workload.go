package workload

import (
	"fmt"

	"squeezy/internal/guestos"
	"squeezy/internal/sim"
	"squeezy/internal/units"
)

// Function describes one FaaS function (Table 1 plus derived profile).
type Function struct {
	Name string
	// CPUShares is the vCPU limit per instance (Table 1).
	CPUShares float64
	// MemoryLimit is the user-set memory resource limit per instance
	// (Table 1) — Squeezy's partition rated size.
	MemoryLimit int64

	// AnonBytes is the anonymous memory an instance touches across
	// init and execution.
	AnonBytes int64
	// FileSharedBytes is the file-backed footprint shareable across
	// instances (container rootfs, runtime and language deps).
	FileSharedBytes int64
	// FilePrivateBytes is the per-instance writable layer that cannot
	// be shared.
	FilePrivateBytes int64

	// ContainerInitCPU, FuncInitCPU and ExecCPU are the pure-CPU parts
	// of sandbox creation, runtime/model initialization, and the first
	// (cold) request execution. Memory-touch costs come on top, from
	// the cost model.
	ContainerInitCPU sim.Duration
	FuncInitCPU      sim.Duration
	ExecCPU          sim.Duration
	// WarmExecCPU is the steady-state request execution cost on an
	// already-initialized instance (no model loading, warm caches).
	WarmExecCPU sim.Duration

	// GuestOSBytes is the guest kernel + agent footprint a dedicated
	// 1:1 microVM replicates per instance (§6.3).
	GuestOSBytes int64

	// Priority is the invocation's shedding class: under memory
	// pressure the dispatcher sheds priority 0 first, and higher
	// priorities survive until the fleet is essentially full
	// (costmodel.ShedBase/ShedStep). Zero-value functions are lowest
	// priority, which keeps single-VM experiments unaffected.
	Priority int
}

// InitAnonBytes returns the portion of AnonBytes touched during
// function initialization (heap, model weights); the rest is touched
// during execution.
func (f *Function) InitAnonBytes() int64 { return f.AnonBytes * 2 / 3 }

// ExecAnonBytes returns the anonymous bytes touched at execution time.
func (f *Function) ExecAnonBytes() int64 { return f.AnonBytes - f.InitAnonBytes() }

// Functions returns the Table 1 workloads.
func Functions() []*Function {
	return []*Function{
		// JPEG classification (FunctionBench).
		{
			Name: "Cnn", CPUShares: 1.0, MemoryLimit: 768 * units.MiB,
			AnonBytes: 330 * units.MiB, FileSharedBytes: 330 * units.MiB, FilePrivateBytes: 50 * units.MiB,
			ContainerInitCPU: 450 * sim.Millisecond, FuncInitCPU: 800 * sim.Millisecond, ExecCPU: 1800 * sim.Millisecond,
			WarmExecCPU:  150 * sim.Millisecond,
			GuestOSBytes: 180 * units.MiB,
		},
		// ML inference (FaaSMem).
		{
			Name: "Bert", CPUShares: 1.0, MemoryLimit: 1536 * units.MiB,
			AnonBytes: 560 * units.MiB, FileSharedBytes: 760 * units.MiB, FilePrivateBytes: 90 * units.MiB,
			ContainerInitCPU: 480 * sim.Millisecond, FuncInitCPU: 1500 * sim.Millisecond, ExecCPU: 2500 * sim.Millisecond,
			WarmExecCPU:  300 * sim.Millisecond,
			GuestOSBytes: 180 * units.MiB,
		},
		// Breadth-first search (FaaSMem); dominated by anonymous memory.
		{
			Name: "BFS", CPUShares: 1.0, MemoryLimit: 768 * units.MiB,
			AnonBytes: 460 * units.MiB, FileSharedBytes: 180 * units.MiB, FilePrivateBytes: 40 * units.MiB,
			ContainerInitCPU: 420 * sim.Millisecond, FuncInitCPU: 300 * sim.Millisecond, ExecCPU: 900 * sim.Millisecond,
			WarmExecCPU:  250 * sim.Millisecond,
			GuestOSBytes: 180 * units.MiB,
		},
		// Web service (FaaSMem); light CPU, page-cache heavy.
		{
			Name: "HTML", CPUShares: 0.25, MemoryLimit: 768 * units.MiB,
			AnonBytes: 110 * units.MiB, FileSharedBytes: 230 * units.MiB, FilePrivateBytes: 40 * units.MiB,
			ContainerInitCPU: 400 * sim.Millisecond, FuncInitCPU: 200 * sim.Millisecond, ExecCPU: 80 * sim.Millisecond,
			WarmExecCPU:  40 * sim.Millisecond,
			GuestOSBytes: 180 * units.MiB,
		},
	}
}

// fleetMember builds the rank-i fleet function from the base profiles:
// cycle the four Table-1 profiles under distinct names ("f003-Bert")
// and spread shedding classes across ranks so every priority mixes hot
// and cold functions.
func fleetMember(base []*Function, i int) *Function {
	f := *base[i%len(base)]
	f.Name = fmt.Sprintf("f%03d-%s", i, f.Name)
	f.Priority = i % 3
	return &f
}

// FleetPool hands out the members of a synthetic fleet by rank
// (fleetMember), paired with trace.FleetCursors, whose Zipf split makes
// low ranks hot and the tail cold. Each member is built lazily on
// first use and memoized, so every lookup of rank i returns the same
// *Function — the identity the dispatcher keys warm instances on — and
// memory stays O(distinct ranks seen).
type FleetPool struct {
	base []*Function
	fns  []*Function
}

// Get returns the rank-i fleet member, building it if needed.
func (p *FleetPool) Get(i int) *Function {
	if p.base == nil {
		p.base = Functions()
	}
	for len(p.fns) <= i {
		p.fns = append(p.fns, fleetMember(p.base, len(p.fns)))
	}
	return p.fns[i]
}

// LongHaul returns a synthetic long-running function whose warm
// execution outlasts costmodel.ReclaimDrainTimeout. Drain-deadline
// tests need an invocation that is still running when a draining
// host's grace period expires, and every Table-1 profile finishes in
// well under a second warm.
func LongHaul() *Function {
	return &Function{
		Name: "LongHaul", CPUShares: 1.0, MemoryLimit: 768 * units.MiB,
		AnonBytes: 330 * units.MiB, FileSharedBytes: 330 * units.MiB, FilePrivateBytes: 50 * units.MiB,
		ContainerInitCPU: 450 * sim.Millisecond, FuncInitCPU: 800 * sim.Millisecond, ExecCPU: 12 * sim.Second,
		WarmExecCPU:  8 * sim.Second,
		GuestOSBytes: 180 * units.MiB,
	}
}

// ByName returns the Table 1 function with the given name.
func ByName(name string) *Function {
	for _, f := range Functions() {
		if f.Name == name {
			return f
		}
	}
	panic("workload: unknown function " + name)
}

// Memhog mimics memhog(8): it repeatedly allocates and frees chunks of
// anonymous memory of a fixed size while burning CPU, stressing both
// the allocator and the vCPUs (§6.1). Drive it by calling Step
// periodically or via Start.
type Memhog struct {
	K *guestos.Kernel
	// Size is the resident footprint the instance maintains.
	Size int64
	// ChurnFraction is the share of the footprint freed and re-touched
	// on every step.
	ChurnFraction float64

	Proc *guestos.Process
}

// NewMemhog spawns a memhog process with the given steady-state
// footprint.
func NewMemhog(k *guestos.Kernel, name string, size int64) *Memhog {
	return &Memhog{K: k, Size: size, ChurnFraction: 0.25, Proc: k.Spawn(name)}
}

// Warmup touches the full footprint. It reports whether the allocation
// fit (false means the zone is exhausted — the OOM case).
func (m *Memhog) Warmup() bool {
	need := m.Size - units.PagesToBytes(m.Proc.AnonPages())
	if need <= 0 {
		return true
	}
	_, ok := m.K.TouchAnon(m.Proc, need, guestos.HugeOrder)
	return ok
}

// ReleaseChurn frees the churn fraction of the footprint (the free half
// of memhog's loop). Interleaving ReleaseChurn/TouchChurn across
// concurrent instances scatters their footprints over shared memory
// blocks, as concurrent memhogs do on a real guest (Figure 3).
func (m *Memhog) ReleaseChurn() {
	churn := int64(float64(m.Size) * m.ChurnFraction)
	if churn > 0 {
		m.K.FreeAnon(m.Proc, churn)
	}
}

// TouchChurn re-touches the churned fraction, reporting whether it fit.
func (m *Memhog) TouchChurn() bool {
	churn := int64(float64(m.Size) * m.ChurnFraction)
	if churn <= 0 {
		return true
	}
	_, ok := m.K.TouchAnon(m.Proc, churn, guestos.HugeOrder)
	return ok
}

// Step performs one full churn iteration: free a fraction of the
// footprint and touch it back, as memhog's (de)allocation loop does. It
// reports whether the re-allocation fit.
func (m *Memhog) Step() bool {
	m.ReleaseChurn()
	return m.TouchChurn()
}

// Kill terminates the memhog instance, releasing its memory.
func (m *Memhog) Kill() int64 {
	return m.K.Exit(m.Proc)
}
