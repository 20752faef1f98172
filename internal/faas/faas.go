package faas

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"squeezy/internal/core"
	"squeezy/internal/costmodel"
	"squeezy/internal/cpu"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/units"
	"squeezy/internal/virtiomem"
	"squeezy/internal/vmm"
	"squeezy/internal/workload"
)

// BackendKind selects the memory-elasticity mechanism of an N:1 VM.
type BackendKind int

// Backends.
const (
	// Static is an over-provisioned VM sized for N instances up front;
	// no plugging or reclamation ever happens (Figure 1's baseline).
	Static BackendKind = iota
	// VirtioMem resizes with the vanilla virtio-mem driver.
	VirtioMem
	// Squeezy resizes with Squeezy partitions.
	Squeezy
	// Harvest is virtio-mem plus the HarvestVM optimizations:
	// per-VM slack buffers and proactive reclamation.
	Harvest
)

// String names the backend as the paper's figures do.
func (k BackendKind) String() string {
	switch k {
	case Static:
		return "static"
	case VirtioMem:
		return "virtio-mem"
	case Squeezy:
		return "squeezy"
	case Harvest:
		return "harvestvm-opts"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(k))
	}
}

// Phases is the cold-start latency breakdown of Figure 11a.
type Phases struct {
	// VMMDelay is microVM boot (1:1) or memory plug latency (N:1).
	VMMDelay sim.Duration
	// MemWait is time spent queued for host memory (zero when memory
	// is abundant).
	MemWait       sim.Duration
	ContainerInit sim.Duration
	FuncInit      sim.Duration
	Exec          sim.Duration
}

// Total returns the end-to-end cold start latency.
func (p Phases) Total() sim.Duration {
	return p.VMMDelay + p.MemWait + p.ContainerInit + p.FuncInit + p.Exec
}

// Result is the outcome of one request.
type Result struct {
	Fn      *workload.Function
	Arrival sim.Time
	Done    sim.Time
	Latency sim.Duration
	Cold    bool
	Dropped bool
	// Failed marks an injected failure: the boot never produced an
	// instance, or the instance crashed mid-execution. Unlike Dropped
	// (resources exhausted), the work itself broke.
	Failed bool
	Phases Phases // populated for cold starts
}

// Completion is a compact record for time-series analyses (Figure 9).
type Completion struct {
	At      sim.Time
	Latency sim.Duration
	Fn      string
	Cold    bool
}

type instState int

const (
	instStarting instState = iota
	instBusy
	instIdle
	instEvicting
)

// Instance is one function container inside an N:1 VM (or the single
// container of a 1:1 microVM).
type Instance struct {
	fv        *FuncVM
	fn        *workload.Function
	proc      *guestos.Process
	state     instState
	idleSince sim.Time
	kaEvent   sim.Event
	// req is the request a warm execution is serving.
	req *request
	// onKeepAlive and onWarmExec are the keep-alive expiry and the
	// warm-execution completion, bound once per instance so a warm
	// invocation re-arms both without allocating.
	onKeepAlive func()
	onWarmExec  func()
}

// newInstance creates a starting instance of fn with its callbacks
// bound.
func (fv *FuncVM) newInstance(fn *workload.Function) *Instance {
	inst := &Instance{fv: fv, fn: fn, state: instStarting}
	inst.onKeepAlive = inst.keepAliveExpired
	inst.onWarmExec = inst.warmExecDone
	return inst
}

func (inst *Instance) keepAliveExpired() { inst.fv.Evict(inst) }

func (inst *Instance) warmExecDone() {
	req := inst.req
	inst.req = nil
	inst.fv.WarmStarts++
	inst.fv.completeRequest(inst, req, false, Phases{})
}

// request tracks one invocation through the dispatch queue. Records
// are recycled through their FuncVM's free list (newRequest,
// dropRequest).
type request struct {
	fn      *workload.Function
	arrival sim.Time
	onDone  func(Result)
	// gen advances each time the record is recycled, so a Ticket that
	// outlives its request cannot touch the record's next tenant.
	gen uint32
	// holds counts the paths still using the record: the request itself
	// until its Result is delivered (or it is cancelled), plus a
	// detached scale-up's provision until that ends. The record is
	// recycled when the count reaches zero.
	holds int8

	state      reqState
	grant      *Grant
	fromBuffer bool     // served from the HarvestVM slack buffer
	granted    sim.Time // when memory was granted
	memWaited  sim.Duration
	retries    int // OOM-retry attempts (movable backends)
	// detached marks a scale-up whose triggering request was served by
	// a warm instance while its grant was still queued. The scale-up
	// proceeds — the instance is provisioned into the warm pool, as the
	// agent already committed to creating it — but the request itself
	// must not run or complete a second time.
	detached bool
	// done marks a request that has delivered its Result (or was
	// cancelled); a done request can never be cancelled or completed
	// again.
	done bool
}

type reqState int

const (
	reqQueued reqState = iota
	reqAcquiring
	reqStarted // removed from queue
)

// VMConfig sizes one N:1 FuncVM.
type VMConfig struct {
	Name string
	Kind BackendKind
	// Fn is the primary function; its memory limit sets the partition
	// (and plug) size. Other functions with the same limit may also be
	// invoked on this VM (the Figure 9 co-location setup).
	Fn *workload.Function
	// CoFns lists additional functions that will run on this VM; their
	// file dependencies are accounted into the shared page cache
	// sizing. They must have the same memory limit as Fn.
	CoFns []*workload.Function
	// N is the concurrency factor: max concurrent instances.
	N int
	// VCPUs overrides the VM's vCPU count; 0 derives it from the CPU
	// shares and concurrency factor (§5.1).
	VCPUs float64
	// KeepAlive is the idle window before eviction; the paper uses 2
	// minutes (§6.2).
	KeepAlive sim.Duration
	// PinReclaim gives reclaim kernel threads a dedicated vCPU
	// (§6.1.2); without it they contend with instances (Figure 9).
	PinReclaim bool
	// HarvestBufferBytes is the slack buffer cap for the Harvest
	// backend.
	HarvestBufferBytes int64
	// Recycle, when non-nil, supplies recycled arena storage for the
	// VM's guest kernel (Runtime.AddVM injects the runtime's recycler
	// when this is unset). Release the kernel with FuncVM.Release once
	// the VM is dead.
	Recycle *guestos.Recycler
	// LeanMetrics skips the per-request Completions log and the
	// per-function Latencies samples, both of which grow with request
	// count. Bounded-memory fleet replays (cluster sketch mode) set it:
	// latencies there aggregate in the cluster's reservoir samples, and
	// nothing per-VM may scale with invocations. Off by default —
	// the single-VM experiments (fig9, fig10) read both records.
	LeanMetrics bool
}

// sizes derives the block-aligned memory geometry of a VM with this
// config: per-instance size, kernel boot span (guest OS plus a fixed
// working pad), and the shared page cache (rootfs/deps of all
// co-located functions plus 25% headroom). newFuncVM builds the VM
// from exactly these numbers and BootFootprintBytes predicts its boot
// commit from them, so the admission estimate cannot drift from the
// real boot cost.
func (cfg VMConfig) sizes() (instBytes, bootBytes, sharedBytes int64) {
	instBytes = units.AlignUp(cfg.Fn.MemoryLimit, units.BlockSize)
	bootBytes = units.AlignUp(cfg.Fn.GuestOSBytes+64*units.MiB, units.BlockSize)
	sharedNeed := cfg.Fn.FileSharedBytes
	for _, co := range cfg.CoFns {
		sharedNeed += co.FileSharedBytes
	}
	sharedBytes = units.AlignUp(sharedNeed*5/4, units.BlockSize)
	return instBytes, bootBytes, sharedBytes
}

// BootFootprintBytes returns the host memory a VM with this config
// commits at boot, before serving any request: kernel boot memory plus
// the shared page cache backing, and — for the Static backend — the
// fully-onlined movable span. Dispatchers use it to avoid booting a VM
// on a host that cannot back it (booting it there panics).
func (cfg VMConfig) BootFootprintBytes() int64 {
	instBytes, boot, shared := cfg.sizes()
	if cfg.Kind == Static {
		return boot + int64(cfg.N)*instBytes + shared
	}
	return boot + shared
}

// FaultInjector is the host's fault-injection window state, consulted
// at decision points (fault.Injector implements it). FailCold and
// CrashExec are probabilistic draws from the host's deterministic
// decision stream; ReclaimStall and ReclaimFraction are passed through
// to the reclaim backends, whose FaultHooks interfaces this one
// subsumes.
type FaultInjector interface {
	FailCold() bool
	CrashExec() bool
	ReclaimStall() sim.Duration
	ReclaimFraction() float64
}

// FuncVM is one N:1 VM with its in-guest agent state.
type FuncVM struct {
	Cfg    VMConfig
	Sched  *sim.Scheduler
	Broker *Broker
	VM     *vmm.VM
	K      *guestos.Kernel

	sq   *core.Manager
	vmem *virtiomem.Driver
	// obs records the host's cold-start phases and reclaim outcomes; nil
	// when tracing is off (the common case — every use is nil-guarded).
	obs *obs.Recorder
	// faults injects boot failures and crashes; nil when fault
	// injection is off (the common case — every use is nil-guarded).
	faults FaultInjector

	instBytes int64 // block-aligned per-instance memory
	instances map[*Instance]struct{}
	idle      []*Instance // oldest-idle first
	queue     []*request
	starting  int

	harvestBuffer int64 // plugged-but-unassigned bytes (Harvest)
	rng           *rand.Rand

	// pressureNext marks the next unplug as pressure-initiated (set by
	// the runtime around pressure evictions); unplugOrigins remembers
	// the origin of each in-flight unplug in issue order, so completed
	// reclaims retire the runtime's in-flight accounting only when the
	// runtime was actually waiting on them.
	pressureNext  bool
	unplugOrigins []bool

	pumping, pumpAgain bool

	// reqFree holds recycled request records. It is per VM — never
	// shared across hosts, which advance concurrently — and survives
	// the shell's own recycling.
	reqFree []*request

	// recycle, when non-nil, is the pool this VM was built from and
	// returns to on Release; released guards against double-release
	// aliasing the shell into the pool twice.
	recycle  *Recycler
	released bool

	// Metrics.
	Latencies      map[string]*stats.Sample // per function name, ms
	Completions    []Completion
	ColdStarts     int
	WarmStarts     int
	DroppedReqs    int
	FailedReqs     int // injected boot failures and crashes
	CancelledReqs  int // requests cancelled via Ticket.TryCancel
	Evictions      int
	ReclaimedBytes int64
	ReclaimTime    sim.Duration
	ReclaimOps     int
	PlugTime       sim.Duration
	PlugOps        int
}

// newFuncVM boots an N:1 VM on the host with the configured backend.
// With a recycler, the agent shell and the inner vmm.VM come out of
// the pool when possible, and the kernel arenas draw from the pool's
// guestos cache. Every observable field is
// (re-)initialized here, so a recycled FuncVM is indistinguishable from
// a fresh one.
func newFuncVM(rec *Recycler, sched *sim.Scheduler, host *hostmem.Host, cost *costmodel.Model, broker *Broker, recorder *obs.Recorder, faults FaultInjector, cfg VMConfig) *FuncVM {
	if cfg.N <= 0 {
		panic("faas: concurrency factor must be positive")
	}
	if cfg.KeepAlive <= 0 {
		cfg.KeepAlive = 2 * sim.Minute
	}
	instBytes, bootBytes, sharedBytes := cfg.sizes()
	for _, co := range cfg.CoFns {
		if units.AlignUp(co.MemoryLimit, units.BlockSize) != instBytes {
			panic(fmt.Sprintf("faas: co-located function %s has a different memory limit", co.Name))
		}
	}
	vcpus := cfg.VCPUs
	if vcpus <= 0 {
		vcpus = cfg.Fn.CPUShares * float64(cfg.N)
	}
	if vcpus < 1 {
		vcpus = 1
	}
	var vm *vmm.VM
	var fv *FuncVM
	if rec != nil {
		vm = rec.takeVM(cfg.Name, sched, cost, host, vcpus)
		fv = rec.takeFuncVM()
	}
	if vm == nil {
		vm = vmm.New(cfg.Name, sched, cost, host, vcpus)
	}
	if cfg.PinReclaim {
		vm.PinReclaimThreads()
	}

	h := fnv.New64a()
	h.Write([]byte(cfg.Name))
	if fv == nil {
		fv = &FuncVM{
			instances: make(map[*Instance]struct{}),
			Latencies: make(map[string]*stats.Sample),
		}
	} else {
		clear(fv.instances)
		clear(fv.Latencies)
		clear(fv.idle)
		fv.idle = fv.idle[:0]
		clear(fv.queue)
		fv.queue = fv.queue[:0]
		fv.Completions = fv.Completions[:0]
		fv.unplugOrigins = fv.unplugOrigins[:0]
		fv.starting = 0
		fv.harvestBuffer = 0
		fv.pressureNext = false
		fv.pumping, fv.pumpAgain = false, false
		fv.sq, fv.vmem = nil, nil
		fv.ColdStarts, fv.WarmStarts, fv.DroppedReqs, fv.Evictions = 0, 0, 0, 0
		fv.FailedReqs, fv.CancelledReqs = 0, 0
		fv.ReclaimedBytes, fv.ReclaimTime, fv.ReclaimOps = 0, 0, 0
		fv.PlugTime, fv.PlugOps = 0, 0
	}
	fv.Cfg = cfg
	fv.Sched = sched
	fv.Broker = broker
	fv.VM = vm
	fv.obs = recorder
	fv.faults = faults
	fv.instBytes = instBytes
	fv.rng = rand.New(rand.NewPCG(h.Sum64(), 0x5a5a))
	fv.recycle = rec
	fv.released = false

	switch cfg.Kind {
	case Squeezy:
		fv.K = guestos.NewKernel(vm, guestos.Config{
			BootBytes:           bootBytes,
			MovableBytes:        0,
			KernelResidentBytes: cfg.Fn.GuestOSBytes,
			Recycle:             cfg.Recycle,
		})
		fv.sq = core.NewManager(fv.K, core.Config{
			PartitionBytes: instBytes,
			Concurrency:    cfg.N,
			SharedBytes:    sharedBytes,
		})
		fv.sq.Obs = recorder
		if faults != nil {
			fv.sq.Faults = faults
		}
	default:
		// Static, VirtioMem and Harvest back instances from
		// ZONE_MOVABLE; the span covers N instances plus the shared
		// page cache.
		movable := int64(cfg.N)*instBytes + sharedBytes
		fv.K = guestos.NewKernel(vm, guestos.Config{
			BootBytes:           bootBytes,
			MovableBytes:        movable,
			KernelResidentBytes: cfg.Fn.GuestOSBytes,
			Recycle:             cfg.Recycle,
		})
		if cfg.Kind == Static {
			fv.K.OnlineAllMovable()
		} else {
			fv.vmem = virtiomem.New(fv.K)
			fv.vmem.Obs = recorder
			if faults != nil {
				fv.vmem.Faults = faults
			}
			// The shared page cache needs backing from the start.
			fv.vmem.Plug(sharedBytes, func(plugged int64) {
				if plugged < sharedBytes {
					panic("faas: host cannot back the shared page cache")
				}
			})
		}
	}
	return fv
}

// Release retires the VM's guest-kernel arenas into the recycler it
// was configured with, and — when the FuncVM itself was built through a
// faas.Recycler — returns the inner vmm.VM and the agent shell to that
// pool. The VM must be dead: nothing may touch it afterwards. Release
// is idempotent; repeated calls are no-ops.
func (fv *FuncVM) Release() {
	if fv.released {
		return
	}
	fv.released = true
	fv.K.Release()
	if fv.recycle != nil {
		fv.recycle.putVM(fv.VM)
		fv.recycle.putFuncVM(fv)
	}
}

// InstanceBytes returns the block-aligned per-instance memory size.
func (fv *FuncVM) InstanceBytes() int64 { return fv.instBytes }

// LiveInstances returns the number of live (starting, busy or idle)
// instances.
func (fv *FuncVM) LiveInstances() int { return len(fv.instances) + fv.starting }

// IdleInstances returns the number of idle instances.
func (fv *FuncVM) IdleInstances() int { return len(fv.idle) }

// QueueLen returns requests waiting for an instance or memory.
func (fv *FuncVM) QueueLen() int { return len(fv.queue) }

// HarvestBufferBytes returns the current slack buffer (Harvest only).
func (fv *FuncVM) HarvestBufferBytes() int64 { return fv.harvestBuffer }

// Invoke submits a request for fn at the current virtual time. onDone
// may be nil.
func (fv *FuncVM) Invoke(fn *workload.Function, onDone func(Result)) {
	fv.Submit(fn, onDone)
}

// Submit is Invoke returning a Ticket for best-effort cancellation
// (used by the cluster dispatcher's hedged-dispatch first-wins
// cleanup).
func (fv *FuncVM) Submit(fn *workload.Function, onDone func(Result)) Ticket {
	req := fv.newRequest(fn, onDone)
	t := Ticket{fv: fv, req: req, gen: req.gen}
	fv.queue = append(fv.queue, req)
	fv.pump()
	return t
}

// newRequest takes a request record off the free list (or allocates
// one) for an invocation of fn arriving now.
func (fv *FuncVM) newRequest(fn *workload.Function, onDone func(Result)) *request {
	var req *request
	if n := len(fv.reqFree); n > 0 {
		req = fv.reqFree[n-1]
		fv.reqFree[n-1] = nil
		fv.reqFree = fv.reqFree[:n-1]
	} else {
		req = new(request)
	}
	*req = request{fn: fn, arrival: fv.Sched.Now(), onDone: onDone, gen: req.gen, holds: 1}
	return req
}

// dropRequest releases one hold on req, recycling the record once no
// path uses it; its Tickets go stale then.
func (fv *FuncVM) dropRequest(req *request) {
	if req.holds <= 0 {
		panic("faas: request record released more often than held")
	}
	if req.holds--; req.holds > 0 {
		return
	}
	*req = request{gen: req.gen + 1}
	fv.reqFree = append(fv.reqFree, req)
}

// Ticket is a handle on a submitted request for best-effort
// cancellation. The zero Ticket is valid and never cancels anything,
// and neither does one whose request record has since been recycled.
type Ticket struct {
	fv  *FuncVM
	req *request
	gen uint32
}

// TryCancel withdraws the request if it has not started running:
// queued requests leave the queue, acquiring requests give their
// memory grant back. A request that reached an instance (or already
// completed) cannot be cancelled — TryCancel reports false and the
// request runs to completion as usual.
func (t Ticket) TryCancel() bool {
	req := t.req
	if req == nil || req.gen != t.gen || req.done {
		return false
	}
	switch req.state {
	case reqQueued:
		t.fv.removeRequest(req)
		req.done = true
		t.fv.CancelledReqs++
		t.fv.dropRequest(req)
		t.fv.pump()
		return true
	case reqAcquiring:
		t.fv.removeRequest(req)
		if req.grant != nil {
			req.grant.Cancel()
			req.grant = nil
		}
		t.fv.starting--
		req.done = true
		t.fv.CancelledReqs++
		t.fv.dropRequest(req)
		t.fv.pump()
		return true
	default: // reqStarted: running, boot-failing, or served warm
		return false
	}
}

// InvokePrimary submits a request for the VM's primary function.
func (fv *FuncVM) InvokePrimary(onDone func(Result)) { fv.Invoke(fv.Cfg.Fn, onDone) }

// pump dispatches queued requests: warm instances first, then cold
// starts while concurrency and memory allow.
func (fv *FuncVM) pump() {
	if fv.pumping {
		fv.pumpAgain = true
		return
	}
	fv.pumping = true
	for {
		fv.pumpAgain = false
		acted := fv.dispatchOne()
		if !acted && !fv.pumpAgain {
			break
		}
	}
	fv.pumping = false
}

func (fv *FuncVM) dispatchOne() bool {
	// Warm path: any queued request whose function has an idle
	// instance runs immediately, even if it was waiting for memory
	// (§6.2.2: delayed scale-ups fall back to already-alive instances).
	// An in-flight scale-up detaches rather than cancels: its grant
	// stays queued and the instance, once memory arrives, joins the
	// warm pool (the agent already decided the extra capacity was
	// needed) — but the request runs exactly once, here.
	for i, req := range fv.queue {
		if inst := fv.takeIdle(req.fn); inst != nil {
			fv.removeQueued(i)
			if req.state == reqAcquiring {
				req.detached = true // keep `starting` reserved for the provision
				req.holds++         // ... and the record, until the provision ends
			}
			req.state = reqStarted
			fv.runWarm(inst, req)
			return true
		}
	}
	// Cold path: first plainly-queued request starts acquiring memory
	// if a concurrency slot is open.
	for _, req := range fv.queue {
		if req.state != reqQueued {
			continue
		}
		if fv.LiveInstances() >= fv.Cfg.N {
			return false
		}
		if fv.faults != nil && fv.faults.FailCold() {
			// Injected boot failure: the dispatch claims its slot and
			// burns the boot delay, then fails instead of producing an
			// instance.
			fv.removeRequest(req)
			req.state = reqStarted
			fv.starting++
			fv.failBoot(req)
			return true
		}
		fv.starting++
		req.state = reqAcquiring
		fv.acquireMemory(req)
		return true
	}
	return false
}

// failBoot models a cold dispatch whose instance boot fails: the boot
// delay elapses, then the caller gets an error Result.
func (fv *FuncVM) failBoot(req *request) {
	fv.Sched.After(fv.VM.Cost.MicroVMBoot, func() {
		fv.starting--
		fv.FailedReqs++
		if fv.obs != nil {
			fv.obs.Count("faults/boot_fails", 1)
			fv.obs.Instant("boot-fail: "+req.fn.Name, obs.CatFault)
		}
		req.done = true
		if req.onDone != nil {
			req.onDone(Result{Fn: req.fn, Arrival: req.arrival, Done: fv.Sched.Now(), Failed: true})
		}
		fv.dropRequest(req)
		fv.pump()
	})
}

// crashInstance kills an instance mid-execution (injected fault): the
// instance dies, its memory is reclaimed, and the request fails. There
// is no agent-level retry — recovering from crashes is the cluster
// dispatcher's job.
func (fv *FuncVM) crashInstance(inst *Instance, req *request) {
	delete(fv.instances, inst)
	fv.K.Exit(inst.proc)
	fv.releaseInstanceMemory()
	fv.FailedReqs++
	if fv.obs != nil {
		fv.obs.Count("faults/crashes", 1)
		fv.obs.Instant("crash: "+req.fn.Name, obs.CatFault)
	}
	req.done = true
	if req.onDone != nil {
		req.onDone(Result{Fn: req.fn, Arrival: req.arrival, Done: fv.Sched.Now(), Failed: true})
	}
	fv.dropRequest(req)
	fv.pump()
}

func (fv *FuncVM) removeQueued(i int) {
	fv.queue = append(fv.queue[:i], fv.queue[i+1:]...)
}

func (fv *FuncVM) removeRequest(req *request) {
	for i, r := range fv.queue {
		if r == req {
			fv.removeQueued(i)
			return
		}
	}
}

// acquireMemory obtains host memory for one instance according to the
// backend, then proceeds to plugAndStart.
func (fv *FuncVM) acquireMemory(req *request) {
	switch fv.Cfg.Kind {
	case Static:
		req.granted = fv.Sched.Now()
		fv.startCold(req)
	case Harvest:
		if fv.harvestBuffer >= fv.instBytes {
			// Plugged slack absorbs the scale-up instantly — the
			// HarvestVM buffering benefit.
			fv.harvestBuffer -= fv.instBytes
			req.fromBuffer = true
			req.granted = fv.Sched.Now()
			fv.startCold(req)
			return
		}
		fv.acquireViaBroker(req)
	default:
		fv.acquireViaBroker(req)
	}
}

func (fv *FuncVM) acquireViaBroker(req *request) {
	pages := units.BytesToPages(fv.instBytes)
	g := fv.Broker.Acquire(pages, func(g *Grant) {
		req.grant = g
		req.granted = fv.Sched.Now()
		req.memWaited = req.granted.Sub(req.arrival)
		if fv.obs != nil && req.memWaited > 0 {
			fv.obs.SpanAt("cold/memwait: "+req.fn.Name, obs.CatInvoke,
				req.arrival, req.memWaited)
		}
		fv.startCold(req)
	})
	if !g.Granted() {
		// Still queued at the broker: record the grant so the request's
		// scale-up state is complete while it waits (the issue callback
		// reassigns the same grant). Detached scale-ups keep it queued
		// on purpose — see dispatchOne's warm path.
		req.grant = g
	}
}

// startCold removes the request from the queue and runs the scale-up
// workflow: plug, spawn, container init, function init, execution.
func (fv *FuncVM) startCold(req *request) {
	fv.removeRequest(req)
	req.state = reqStarted
	plugStart := fv.Sched.Now()
	afterPlug := func(ok bool) {
		if !ok {
			if req.detached {
				// The triggering request already ran warm; abandon the
				// provision instead of re-queueing a request that must
				// not run again.
				fv.abandonProvision(req)
				return
			}
			// Transient: an in-flight unplug still owns the partition
			// or the host raced us. Retry shortly; drop only after
			// repeated failures.
			if fv.retryCold(req) {
				return
			}
			fv.failRequest(req)
			return
		}
		if req.grant != nil {
			req.grant.Consume()
			req.grant = nil
		}
		fv.PlugOps++
		fv.PlugTime += fv.Sched.Now().Sub(plugStart)
		fv.spawnInstance(req, fv.Sched.Now().Sub(plugStart))
	}
	switch fv.Cfg.Kind {
	case Static:
		fv.spawnInstance(req, 0)
	case Squeezy:
		fv.sq.Plug(1, func(n int) { afterPlug(n == 1) })
	case VirtioMem, Harvest:
		if req.fromBuffer {
			// Served from the plugged slack buffer: no plug needed.
			fv.spawnInstance(req, 0)
			return
		}
		fv.vmem.Plug(fv.instBytes, func(plugged int64) {
			// A long-running guest's allocator state is history-
			// dependent: allocations spread over all online blocks
			// rather than packing the newest ones. Re-scrambling the
			// free lists after each plug models that entropy; without
			// it the LIFO buddy would keep fresh blocks pristine and
			// make vanilla unplug artificially cheap.
			fv.K.ScrambleFreeLists(fv.K.Movable, fv.rng)
			// A partial plug is not fatal on the shared-movable
			// backends: earlier partial unplugs leave extra blocks
			// online (§6.2.2 — timeouts force virtio-mem to keep the
			// maximum memory), and the instance allocates from the
			// whole zone.
			afterPlug(true)
		})
	}
}

// spawnInstance creates the container process and walks the cold-start
// phases.
func (fv *FuncVM) spawnInstance(req *request, vmmDelay sim.Duration) {
	inst := fv.newInstance(req.fn)
	inst.proc = fv.K.Spawn(req.fn.Name)
	phases := Phases{VMMDelay: vmmDelay, MemWait: req.memWaited}

	begin := func() {
		fv.starting--
		fv.instances[inst] = struct{}{}
		if req.detached {
			fv.dropRequest(req) // the provision needs only the instance
			fv.runProvisionPhases(inst)
			return
		}
		fv.runColdPhases(inst, req, phases)
	}
	if fv.Cfg.Kind == Squeezy {
		fv.sq.Attach(inst.proc, func(*core.Partition) { begin() })
		return
	}
	begin()
}

// runProvisionPhases boots a detached scale-up's instance into the
// warm pool: container init and function init run as in a cold start,
// but there is no request to execute — the instance idles, ready for
// the next invocation (or for keep-alive eviction).
func (fv *FuncVM) runProvisionPhases(inst *Instance) {
	fn := inst.fn
	k := fv.K
	rootfs := k.File(fn.Name+"/rootfs", fn.FileSharedBytes)
	fileWork, okFile := k.TouchFile(inst.proc, rootfs, fn.FileSharedBytes)
	privWork, okPriv := k.TouchAnon(inst.proc, fn.FilePrivateBytes, guestos.HugeOrder)
	if !okFile || !okPriv {
		fv.abortProvision(inst)
		return
	}
	fv.VM.VCPUs.Submit(fn.ContainerInitCPU+fileWork+privWork, cpu.Config{
		Name: "container", Class: "container", Weight: 1, Cap: 1,
		OnDone: func() {
			initWork, ok := k.TouchAnon(inst.proc, fn.InitAnonBytes(), guestos.HugeOrder)
			if !ok {
				fv.abortProvision(inst)
				return
			}
			fv.VM.VCPUs.Submit(fn.FuncInitCPU+initWork, cpu.Config{
				Name: "init", Class: "function", Weight: fn.CPUShares, Cap: maxf(fn.CPUShares, 0.1),
				OnDone: func() {
					// First execution warms the instance (touching its
					// exec footprint), exactly as the request would
					// have — the work was already committed when the
					// scale-up was issued; only the completion event
					// belongs to the warm instance that served it.
					execWork, ok := k.TouchAnon(inst.proc, fn.ExecAnonBytes(), guestos.HugeOrder)
					if !ok {
						fv.abortProvision(inst)
						return
					}
					fv.VM.VCPUs.Submit(fn.ExecCPU+execWork, cpu.Config{
						Name: "exec", Class: "function", Weight: fn.CPUShares, Cap: maxf(fn.CPUShares, 0.1),
						OnDone: func() { fv.idleInstance(inst) },
					})
				},
			})
		},
	})
}

// abandonProvision gives up on a detached scale-up whose plug failed.
func (fv *FuncVM) abandonProvision(req *request) {
	fv.starting--
	if req.grant != nil {
		req.grant.Cancel()
		req.grant = nil
	}
	fv.dropRequest(req)
	fv.pump()
}

// abortProvision kills a provisioning instance that overran guest
// memory; unlike a request-carrying cold start there is nothing to
// retry.
func (fv *FuncVM) abortProvision(inst *Instance) {
	delete(fv.instances, inst)
	fv.K.Exit(inst.proc)
	fv.releaseInstanceMemory()
	fv.pump()
}

// idleInstance parks an instance in the warm pool and arms its
// keep-alive timer.
func (fv *FuncVM) idleInstance(inst *Instance) {
	inst.state = instIdle
	inst.idleSince = fv.Sched.Now()
	fv.idle = append(fv.idle, inst)
	inst.kaEvent = fv.Sched.After(fv.Cfg.KeepAlive, inst.onKeepAlive)
	fv.pump()
}

// runColdPhases executes container init, function init and the first
// request, charging CPU and memory-touch work per phase.
func (fv *FuncVM) runColdPhases(inst *Instance, req *request, phases Phases) {
	fn := inst.fn
	k := fv.K

	// Container init: cold-touch the shared rootfs/deps plus the
	// private writable layer.
	rootfs := k.File(fn.Name+"/rootfs", fn.FileSharedBytes)
	fileWork, okFile := k.TouchFile(inst.proc, rootfs, fn.FileSharedBytes)
	privWork, okPriv := k.TouchAnon(inst.proc, fn.FilePrivateBytes, guestos.HugeOrder)
	if !okFile || !okPriv {
		fv.oomKill(inst, req)
		return
	}
	containerStart := fv.Sched.Now()
	fv.VM.VCPUs.Submit(fn.ContainerInitCPU+fileWork+privWork, cpu.Config{
		Name: "container", Class: "container", Weight: 1, Cap: 1,
		OnDone: func() {
			phases.ContainerInit = fv.Sched.Now().Sub(containerStart)
			if fv.obs != nil {
				fv.obs.Span("cold/container: "+fn.Name, obs.CatInvoke, containerStart)
			}

			// Function init: runtime + model heap.
			initWork, ok := k.TouchAnon(inst.proc, fn.InitAnonBytes(), guestos.HugeOrder)
			if !ok {
				fv.oomKill(inst, req)
				return
			}
			initStart := fv.Sched.Now()
			fv.VM.VCPUs.Submit(fn.FuncInitCPU+initWork, cpu.Config{
				Name: "init", Class: "function", Weight: fn.CPUShares, Cap: maxf(fn.CPUShares, 0.1),
				OnDone: func() {
					phases.FuncInit = fv.Sched.Now().Sub(initStart)
					if fv.obs != nil {
						fv.obs.Span("cold/init: "+fn.Name, obs.CatInvoke, initStart)
					}

					// First execution.
					execWork, ok := k.TouchAnon(inst.proc, fn.ExecAnonBytes(), guestos.HugeOrder)
					if !ok {
						fv.oomKill(inst, req)
						return
					}
					execStart := fv.Sched.Now()
					if fv.faults != nil && fv.faults.CrashExec() {
						// Injected crash: half the execution runs, then
						// the instance dies.
						fv.VM.VCPUs.Submit((fn.ExecCPU+execWork)/2, cpu.Config{
							Name: "exec", Class: "function", Weight: fn.CPUShares, Cap: maxf(fn.CPUShares, 0.1),
							OnDone: func() { fv.crashInstance(inst, req) },
						})
						return
					}
					fv.VM.VCPUs.Submit(fn.ExecCPU+execWork, cpu.Config{
						Name: "exec", Class: "function", Weight: fn.CPUShares, Cap: maxf(fn.CPUShares, 0.1),
						OnDone: func() {
							phases.Exec = fv.Sched.Now().Sub(execStart)
							if fv.obs != nil {
								fv.obs.Span("cold/exec: "+fn.Name, obs.CatInvoke, execStart)
							}
							fv.ColdStarts++
							fv.completeRequest(inst, req, true, phases)
						},
					})
				},
			})
		},
	})
}

// runWarm executes a request on a kept-alive instance.
func (fv *FuncVM) runWarm(inst *Instance, req *request) {
	inst.kaEvent.Cancel()
	inst.kaEvent = sim.Event{}
	inst.state = instBusy
	fn := inst.fn
	if fv.faults != nil && fv.faults.CrashExec() {
		// Injected crash: half the execution runs, then the instance
		// dies.
		fv.VM.VCPUs.Submit(fn.WarmExecCPU/2, cpu.Config{
			Name: "exec", Class: "function", Weight: fn.CPUShares, Cap: maxf(fn.CPUShares, 0.1),
			OnDone: func() { fv.crashInstance(inst, req) },
		})
		return
	}
	inst.req = req
	fv.VM.VCPUs.Submit(fn.WarmExecCPU, cpu.Config{
		Name: "exec", Class: "function", Weight: fn.CPUShares, Cap: maxf(fn.CPUShares, 0.1),
		OnDone: inst.onWarmExec,
	})
}

func (fv *FuncVM) completeRequest(inst *Instance, req *request, cold bool, phases Phases) {
	now := fv.Sched.Now()
	lat := now.Sub(req.arrival)
	res := Result{
		Fn: req.fn, Arrival: req.arrival, Done: now,
		Latency: lat, Cold: cold, Phases: phases,
	}
	if !fv.Cfg.LeanMetrics {
		s := fv.Latencies[req.fn.Name]
		if s == nil {
			s = &stats.Sample{}
			fv.Latencies[req.fn.Name] = s
		}
		s.Add(lat.Milliseconds())
		fv.Completions = append(fv.Completions, Completion{At: now, Latency: lat, Fn: req.fn.Name, Cold: cold})
	}

	inst.state = instIdle
	inst.idleSince = now
	fv.idle = append(fv.idle, inst)
	inst.kaEvent = fv.Sched.After(fv.Cfg.KeepAlive, inst.onKeepAlive)
	req.done = true
	if req.onDone != nil {
		req.onDone(res)
	}
	fv.dropRequest(req)
	fv.pump()
}

func (fv *FuncVM) failRequest(req *request) {
	fv.starting--
	fv.DroppedReqs++
	if req.grant != nil {
		req.grant.Cancel()
		req.grant = nil
	}
	req.done = true
	if req.onDone != nil {
		req.onDone(Result{Fn: req.fn, Arrival: req.arrival, Done: fv.Sched.Now(), Dropped: true})
	}
	fv.dropRequest(req)
	fv.pump()
}

// oomKill handles a cold start that overran guest memory (possible on
// the shared-movable backends when concurrent scale-ups race a
// shrinking zone). The instance dies; the request retries a few times —
// the runtime prefers late execution over failure (§6.2.2) — before
// being dropped.
func (fv *FuncVM) oomKill(inst *Instance, req *request) {
	delete(fv.instances, inst)
	fv.K.Exit(inst.proc)
	fv.releaseInstanceMemory()
	if fv.retryCold(req) {
		return
	}
	fv.starting++ // failRequest decrements
	fv.failRequest(req)
}

// retryCold puts a failed cold start back at the head of the queue for
// another attempt a moment later. It reports false once the retry
// budget is exhausted.
func (fv *FuncVM) retryCold(req *request) bool {
	if req.retries >= 5 {
		return false
	}
	req.retries++
	if req.grant != nil {
		req.grant.Cancel()
		req.grant = nil
	}
	req.state = reqQueued
	req.fromBuffer = false
	fv.starting--
	fv.queue = append([]*request{req}, fv.queue...)
	fv.Sched.After(100*sim.Millisecond, func() { fv.pump() })
	return true
}

func (fv *FuncVM) takeIdle(fn *workload.Function) *Instance {
	// Most-recently-idled instance of the right function (LIFO keeps
	// the warm set minimal, letting old instances age out).
	for i := len(fv.idle) - 1; i >= 0; i-- {
		if fv.idle[i].fn == fn {
			inst := fv.idle[i]
			fv.idle = append(fv.idle[:i], fv.idle[i+1:]...)
			return inst
		}
	}
	return nil
}

// Evict kills an idle instance and reclaims its memory (scale-down,
// Figure 4 right). It is called by keep-alive expiry and by the runtime
// under host memory pressure.
func (fv *FuncVM) Evict(inst *Instance) {
	if inst.state != instIdle {
		return
	}
	for i, in := range fv.idle {
		if in == inst {
			fv.idle = append(fv.idle[:i], fv.idle[i+1:]...)
			break
		}
	}
	inst.kaEvent.Cancel()
	inst.kaEvent = sim.Event{}
	inst.state = instEvicting
	delete(fv.instances, inst)
	fv.Evictions++
	if fv.obs != nil {
		// pressureNext is still unconsumed here (releaseInstanceMemory
		// takes it below), so it tells keep-alive expiry apart from a
		// runtime pressure eviction.
		kind := "keepalive"
		if fv.pressureNext {
			kind = "pressure"
		}
		fv.obs.Count("evictions/"+kind, 1)
		fv.obs.Instant("evict/"+kind+": "+inst.fn.Name, obs.CatMemory)
	}
	fv.K.Exit(inst.proc)
	fv.releaseInstanceMemory()
	fv.pump()
}

// EvictOldestIdle evicts the longest-idle instance, returning whether
// one existed (used by pressure handling and proactive reclamation).
func (fv *FuncVM) EvictOldestIdle() bool {
	if len(fv.idle) == 0 {
		return false
	}
	fv.Evict(fv.idle[0])
	return true
}

// releaseInstanceMemory reclaims one instance's memory via the backend.
func (fv *FuncVM) releaseInstanceMemory() {
	start := fv.Sched.Now()
	pressure := fv.pressureNext
	fv.pressureNext = false
	switch fv.Cfg.Kind {
	case Static:
		return
	case Squeezy:
		fv.unplugOrigins = append(fv.unplugOrigins, pressure)
		fv.sq.Unplug(1, func(res core.UnplugResult) {
			fv.recordReclaim(res.ReclaimedBytes, res.RequestedBytes, fv.Sched.Now().Sub(start))
		})
	case VirtioMem:
		fv.unplugOrigins = append(fv.unplugOrigins, pressure)
		fv.vmem.Unplug(fv.instBytes, func(res virtiomem.UnplugResult) {
			fv.recordReclaim(res.ReclaimedBytes, res.RequestedBytes, fv.Sched.Now().Sub(start))
		})
	case Harvest:
		if fv.harvestBuffer < fv.Cfg.HarvestBufferBytes {
			// Keep the memory plugged as slack; committed host memory
			// stays tied down (the HarvestVM memory tax, Figure 10
			// right).
			fv.harvestBuffer += fv.instBytes
			return
		}
		fv.unplugOrigins = append(fv.unplugOrigins, pressure)
		fv.vmem.Unplug(fv.instBytes, func(res virtiomem.UnplugResult) {
			fv.recordReclaim(res.ReclaimedBytes, res.RequestedBytes, fv.Sched.Now().Sub(start))
		})
	}
}

// ReleaseHarvestBuffer unplugs up to bytes of the slack buffer back to
// the host (pressure response). It returns the bytes being reclaimed.
func (fv *FuncVM) ReleaseHarvestBuffer(bytes int64) int64 {
	if fv.Cfg.Kind != Harvest || fv.harvestBuffer == 0 {
		return 0
	}
	take := fv.harvestBuffer
	if bytes < take {
		take = bytes
	}
	fv.harvestBuffer -= take
	start := fv.Sched.Now()
	// Buffer releases only happen on pressure response.
	fv.unplugOrigins = append(fv.unplugOrigins, true)
	fv.vmem.Unplug(take, func(res virtiomem.UnplugResult) {
		fv.recordReclaim(res.ReclaimedBytes, res.RequestedBytes, fv.Sched.Now().Sub(start))
	})
	return take
}

func (fv *FuncVM) recordReclaim(bytes, requested int64, took sim.Duration) {
	fv.ReclaimedBytes += bytes
	fv.ReclaimTime += took
	fv.ReclaimOps++
	if fv.obs != nil {
		kind := fv.Cfg.Kind.String()
		fv.obs.Count("pages_reclaimed/"+kind, units.BytesToPages(bytes))
		if stranded := units.BytesToPages(requested - bytes); stranded > 0 {
			fv.obs.Count("pages_stranded/"+kind, stranded)
		}
	}
	// Per-VM unplugs complete in issue order, so the oldest origin
	// entry is this reclaim's. Only pressure-initiated reclaims retire
	// the runtime's in-flight accounting — a keep-alive unplug landing
	// mid-pressure must not make the runtime forget memory it is still
	// owed, or it over-evicts into an eviction storm.
	pressure := false
	if len(fv.unplugOrigins) > 0 {
		pressure = fv.unplugOrigins[0]
		fv.unplugOrigins = fv.unplugOrigins[1:]
	}
	if pressure && fv.Broker.OnReclaimed != nil {
		fv.Broker.OnReclaimed(units.BytesToPages(bytes))
	}
	fv.Broker.Pump()
}

// ReclaimThroughputMiBs returns the Figure 8 metric: MiB reclaimed per
// second of reclaim-operation time.
func (fv *FuncVM) ReclaimThroughputMiBs() float64 {
	if fv.ReclaimTime <= 0 {
		return 0
	}
	return float64(fv.ReclaimedBytes) / float64(units.MiB) / fv.ReclaimTime.Seconds()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
