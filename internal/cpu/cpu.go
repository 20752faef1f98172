package cpu

import (
	"fmt"
	"math"

	"squeezy/internal/sim"
)

// Job is a handle to a unit of CPU work executing on a Pool. Create
// jobs with Pool.Submit.
//
// A Job is a small value naming a record in its pool's job slab. The
// record is recycled once the job finishes or is cancelled; a
// generation counter makes the handle stale from then on, so holding a
// Job past its completion is safe — it reports Done, Cancel is a
// no-op, and AddWork panics — exactly as sim.Event handles behave. The
// zero Job is a finished job.
type Job struct {
	pool *Pool
	idx  int32
	gen  uint32
}

// job is one submitted job's record in its pool's slab, recycled
// through the pool's free list; gen advances on every recycle so stale
// Job handles cannot touch a reused record. It holds no pointers: the
// class is an index into Pool.classes and the callback lives in the
// parallel Pool.onDone, so the garbage collector never scans the slab.
type job struct {
	weight float64
	cap    float64

	remaining float64 // CPU-ns of work left
	rate      float64 // cores currently allocated
	class     int32
	gen       uint32
}

// live returns the job's record, or nil once the job has finished or
// been cancelled.
func (j Job) live() *job {
	if j.pool == nil {
		return nil
	}
	r := &j.pool.slab[j.idx]
	if r.gen != j.gen {
		return nil
	}
	return r
}

// Done reports whether the job has finished or been cancelled.
func (j Job) Done() bool { return j.live() == nil }

// Remaining returns the CPU-ns of work left (0 once the job is done).
func (j Job) Remaining() sim.Duration {
	if r := j.live(); r != nil {
		return sim.Duration(math.Ceil(r.remaining))
	}
	return 0
}

// Cancel removes the job from its pool without running its completion
// callback. Cancelling a finished job is a no-op.
func (j Job) Cancel() {
	if j.Done() {
		return
	}
	p := j.pool
	p.advance()
	if !j.Done() { // advance may have just finished it
		p.remove(j.idx)
		p.release(j.idx)
	}
	p.reschedule()
}

// AddWork increases the job's remaining work by d CPU-ns, e.g. when a
// reclaim thread receives another batch of blocks to migrate.
func (j Job) AddWork(d sim.Duration) {
	r := j.live()
	if r == nil {
		panic("cpu: AddWork on finished job")
	}
	j.pool.advance()
	if r = j.live(); r != nil { // advance may have just finished it
		r.remaining += float64(d)
	}
	j.pool.reschedule()
}

// Config parameterizes a job submission.
type Config struct {
	// Name labels the submission at its call site; the pool does not
	// keep it.
	Name string
	// Class is the accounting bucket for utilization sampling, e.g.
	// "virtio-mem", "function".
	Class string
	// Weight is the processor-sharing weight; zero defaults to 1.
	Weight float64
	// Cap is the maximum number of cores the job may occupy; zero
	// defaults to 1 (a single thread).
	Cap float64
	// OnDone runs when the work completes.
	OnDone func()
}

// Pool is a set of cores scheduled by weighted processor sharing. It is
// driven by a sim.Scheduler and is not safe for concurrent use.
type Pool struct {
	sched *sim.Scheduler
	cores float64

	// slab holds the job records, free the indexes of recycled ones.
	// jobs is the running set as slab indexes in submission order —
	// usage accumulates in that order, so it is part of the
	// deterministic contract.
	slab   []job
	onDone []func() // completion callbacks, parallel to slab
	free   []int32
	jobs   []int32

	lastAdvance sim.Time
	completion  sim.Event
	// fire is the completion-event callback, bound once so re-arming
	// the event on every reschedule allocates nothing.
	fire func()

	// classes are the accounting classes jobs have named, in first-use
	// order; usage is each one's cumulative CPU-ns consumed.
	classes   []string
	usage     []float64
	totalBusy float64 // cumulative CPU-ns consumed, all classes

	// Scratch buffers reused across allocate/advance calls; the
	// simulation reschedules on every event, so per-call allocations
	// here dominate the GC profile of a long run. advance is
	// re-entrant only at dt == 0 (nested calls return before touching
	// finScratch or finFns), so sharing is safe.
	allocScratch []int32
	finScratch   []int32
	finFns       []func()
}

// NewPool creates a pool of cores CPUs driven by sched. cores may be
// fractional (e.g. an 0.25-share cgroup slice viewed as a pool), but
// must be positive.
func NewPool(sched *sim.Scheduler, cores float64) *Pool {
	if cores <= 0 {
		panic(fmt.Sprintf("cpu: non-positive core count %v", cores))
	}
	p := &Pool{
		sched:       sched,
		cores:       cores,
		lastAdvance: sched.Now(),
	}
	p.fire = func() {
		p.completion = sim.Event{}
		p.advance()
		p.reschedule()
	}
	return p
}

// Reset returns the pool to its just-constructed state on sched — no
// jobs, no accumulated usage, clock anchored at sched's current time —
// while keeping the job slab, scratch buffers, and class table. Running
// jobs are recycled, so their handles go stale. sched must already be
// at the time the next simulation starts from, and the old scheduler
// must never fire the pending completion event, whose handle is
// simply dropped (a pooled world resets it or never advances it).
func (p *Pool) Reset(sched *sim.Scheduler, cores float64) {
	if cores <= 0 {
		panic(fmt.Sprintf("cpu: non-positive core count %v", cores))
	}
	p.sched = sched
	p.cores = cores
	for _, i := range p.jobs {
		p.release(i)
	}
	p.jobs = p.jobs[:0]
	p.lastAdvance = p.sched.Now()
	p.completion = sim.Event{}
	clear(p.usage)
	p.totalBusy = 0
}

// Active returns the number of unfinished jobs.
func (p *Pool) Active() int { return len(p.jobs) }

// Submit adds a job with the given amount of CPU work. Zero or negative
// work completes immediately (the callback still fires, via the
// scheduler, at the current time) and returns the zero, finished Job.
func (p *Pool) Submit(work sim.Duration, cfg Config) Job {
	p.advance()
	if work <= 0 {
		if cfg.OnDone != nil {
			p.sched.After(0, cfg.OnDone)
		}
		return Job{}
	}
	var i int32
	if n := len(p.free); n > 0 {
		i = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		p.slab = append(p.slab, job{})
		p.onDone = append(p.onDone, nil)
		i = int32(len(p.slab) - 1)
	}
	r := &p.slab[i]
	r.weight, r.cap = cfg.Weight, cfg.Cap
	r.remaining, r.rate = float64(work), 0
	if r.weight <= 0 {
		r.weight = 1
	}
	if r.cap <= 0 {
		r.cap = 1
	}
	class := cfg.Class
	if class == "" {
		class = "default"
	}
	r.class = p.classIndex(class)
	p.onDone[i] = cfg.OnDone
	p.jobs = append(p.jobs, i)
	p.reschedule()
	return Job{pool: p, idx: i, gen: r.gen}
}

// release recycles job record i: its handles go stale and its callback
// is dropped. The caller has already taken it out of the running set.
func (p *Pool) release(i int32) {
	p.onDone[i] = nil
	p.slab[i].gen++
	p.free = append(p.free, i)
}

// classIndex returns the index of class in p.classes, adding it on
// first use. A pool sees a handful of classes, so a scan beats a map.
func (p *Pool) classIndex(class string) int32 {
	for i, c := range p.classes {
		if c == class {
			return int32(i)
		}
	}
	p.classes = append(p.classes, class)
	p.usage = append(p.usage, 0)
	return int32(len(p.classes) - 1)
}

// Utilization returns the cumulative CPU-ns consumed by the given class
// since the pool was created. Sample it at two instants and divide the
// delta by the wall interval to obtain a utilization percentage.
func (p *Pool) Utilization(class string) sim.Duration {
	p.advance()
	for i, c := range p.classes {
		if c == class {
			return sim.Duration(p.usage[i])
		}
	}
	return 0
}

// TotalBusy returns cumulative CPU-ns consumed across all classes.
func (p *Pool) TotalBusy() sim.Duration {
	p.advance()
	return sim.Duration(p.totalBusy)
}

// allocate recomputes per-job rates by water-filling: distribute
// capacity proportionally to weight; jobs exceeding their cap are frozen
// at the cap and the residual capacity is redistributed among the rest.
func (p *Pool) allocate() {
	capacity := p.cores
	unfrozen := append(p.allocScratch[:0], p.jobs...)
	p.allocScratch = unfrozen[:0] // the filtering below stays in this array
	for _, i := range unfrozen {
		p.slab[i].rate = 0
	}
	for len(unfrozen) > 0 && capacity > 1e-15 {
		var wsum float64
		for _, i := range unfrozen {
			wsum += p.slab[i].weight
		}
		frozeAny := false
		next := unfrozen[:0]
		for _, i := range unfrozen {
			j := &p.slab[i]
			share := capacity * j.weight / wsum
			if share >= j.cap-1e-15 {
				j.rate = j.cap
				capacity -= j.cap
				frozeAny = true
			} else {
				next = append(next, i)
			}
		}
		unfrozen = next
		if !frozeAny {
			// Nobody hit their cap: proportional split is final.
			for _, i := range unfrozen {
				j := &p.slab[i]
				j.rate = capacity * j.weight / wsum
			}
			return
		}
	}
}

// advance applies work progress between lastAdvance and now at the
// current rates, completing any job whose remaining work hits zero.
// Rates are piecewise-constant between events, so this is exact.
// Finished jobs are recycled before any completion callback runs, so
// every callback sees all of them Done.
func (p *Pool) advance() {
	now := p.sched.Now()
	dt := float64(now.Sub(p.lastAdvance))
	p.lastAdvance = now
	if dt <= 0 || len(p.jobs) == 0 {
		return
	}
	finished := p.finScratch[:0]
	for _, i := range p.jobs {
		j := &p.slab[i]
		progress := j.rate * dt
		if progress > j.remaining {
			progress = j.remaining
		}
		j.remaining -= progress
		p.usage[j.class] += progress
		p.totalBusy += progress
		if j.remaining <= 1e-9 {
			j.remaining = 0
			finished = append(finished, i)
		}
	}
	p.finScratch = finished[:0]
	if len(finished) == 0 {
		return
	}
	fns := p.finFns[:0]
	for _, i := range finished {
		p.remove(i)
		if fn := p.onDone[i]; fn != nil {
			fns = append(fns, fn)
		}
		p.release(i)
	}
	for _, fn := range fns {
		fn()
	}
	clear(fns) // drop the callbacks so their captures can be collected
	p.finFns = fns[:0]
}

func (p *Pool) remove(target int32) {
	for k, i := range p.jobs {
		if i == target {
			p.jobs = append(p.jobs[:k], p.jobs[k+1:]...)
			return
		}
	}
}

// reschedule recomputes rates and (re)arms the next-completion event.
func (p *Pool) reschedule() {
	p.completion.Cancel()
	p.completion = sim.Event{}
	if len(p.jobs) == 0 {
		return
	}
	p.allocate()
	soonest := math.Inf(1)
	for _, i := range p.jobs {
		j := &p.slab[i]
		if j.rate <= 0 {
			continue
		}
		t := j.remaining / j.rate
		if t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		return // capacity exhausted by zero-rate jobs; nothing can finish
	}
	d := sim.Duration(math.Ceil(soonest))
	if d < 1 {
		d = 1
	}
	p.completion = p.sched.After(d, p.fire)
}
