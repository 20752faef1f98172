package cpu

import (
	"fmt"
	"math"

	"squeezy/internal/sim"
)

// Job is a unit of CPU work executing on a Pool. Create jobs with
// Pool.Submit.
type Job struct {
	name   string
	class  string
	weight float64
	cap    float64

	remaining float64 // CPU-ns of work left
	rate      float64 // cores currently allocated
	onDone    func()
	done      bool
	cancelled bool
	pool      *Pool
}

// Class returns the job's accounting class.
func (j *Job) Class() string { return j.class }

// Done reports whether the job has finished or been cancelled.
func (j *Job) Done() bool { return j.done || j.cancelled }

// Remaining returns the CPU-ns of work left.
func (j *Job) Remaining() sim.Duration { return sim.Duration(math.Ceil(j.remaining)) }

// Rate returns the number of cores currently allocated to the job.
func (j *Job) Rate() float64 { return j.rate }

// Cancel removes the job from its pool without running its completion
// callback. Cancelling a finished job is a no-op.
func (j *Job) Cancel() {
	if j.Done() {
		return
	}
	j.pool.advance()
	j.cancelled = true
	j.pool.remove(j)
	j.pool.reschedule()
}

// AddWork increases the job's remaining work by d CPU-ns, e.g. when a
// reclaim thread receives another batch of blocks to migrate.
func (j *Job) AddWork(d sim.Duration) {
	if j.Done() {
		panic("cpu: AddWork on finished job " + j.name)
	}
	j.pool.advance()
	j.remaining += float64(d)
	j.pool.reschedule()
}

// Config parameterizes a job submission.
type Config struct {
	// Name is a display name for debugging.
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
	jobs  []*Job

	lastAdvance sim.Time
	completion  sim.Event

	usage     map[string]float64 // class -> cumulative CPU-ns consumed
	totalBusy float64            // cumulative CPU-ns consumed, all classes

	// Scratch buffers reused across allocate/advance calls; the
	// simulation reschedules on every event, so per-call allocations
	// here dominate the GC profile of a long run. advance is
	// re-entrant only at dt == 0 (nested calls return before touching
	// finScratch), so sharing is safe.
	allocScratch []*Job
	finScratch   []*Job
}

// NewPool creates a pool of cores CPUs driven by sched. cores may be
// fractional (e.g. an 0.25-share cgroup slice viewed as a pool), but
// must be positive.
func NewPool(sched *sim.Scheduler, cores float64) *Pool {
	if cores <= 0 {
		panic(fmt.Sprintf("cpu: non-positive core count %v", cores))
	}
	return &Pool{
		sched:       sched,
		cores:       cores,
		lastAdvance: sched.Now(),
		usage:       make(map[string]float64),
	}
}

// Reset returns the pool to its just-constructed state — no jobs, no
// accumulated usage, clock anchored at the scheduler's current time —
// while keeping the job slice, scratch buffers, and usage map. The
// scheduler must already be at the time the next simulation starts
// from (a pooled world resets the scheduler first); any pending
// completion event became stale with that reset, so the handle is
// simply dropped.
func (p *Pool) Reset(cores float64) {
	if cores <= 0 {
		panic(fmt.Sprintf("cpu: non-positive core count %v", cores))
	}
	p.cores = cores
	clear(p.jobs) // drop stale *Job pointers before truncating
	p.jobs = p.jobs[:0]
	p.lastAdvance = p.sched.Now()
	p.completion = sim.Event{}
	clear(p.usage)
	p.totalBusy = 0
}

// Cores returns the pool capacity.
func (p *Pool) Cores() float64 { return p.cores }

// Active returns the number of unfinished jobs.
func (p *Pool) Active() int { return len(p.jobs) }

// Submit adds a job with the given amount of CPU work. Zero or negative
// work completes immediately (the callback still fires, via the
// scheduler, at the current time).
func (p *Pool) Submit(work sim.Duration, cfg Config) *Job {
	p.advance()
	j := &Job{
		name:      cfg.Name,
		class:     cfg.Class,
		weight:    cfg.Weight,
		cap:       cfg.Cap,
		remaining: float64(work),
		onDone:    cfg.OnDone,
		pool:      p,
	}
	if j.weight <= 0 {
		j.weight = 1
	}
	if j.cap <= 0 {
		j.cap = 1
	}
	if j.class == "" {
		j.class = "default"
	}
	if j.remaining <= 0 {
		j.done = true
		if j.onDone != nil {
			p.sched.After(0, j.onDone)
		}
		return j
	}
	p.jobs = append(p.jobs, j)
	p.reschedule()
	return j
}

// Utilization returns the cumulative CPU-ns consumed by the given class
// since the pool was created. Sample it at two instants and divide the
// delta by the wall interval to obtain a utilization percentage.
func (p *Pool) Utilization(class string) sim.Duration {
	p.advance()
	return sim.Duration(p.usage[class])
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
	for _, j := range unfrozen {
		j.rate = 0
	}
	defer func() {
		// Clear the whole backing array so stale *Job pointers beyond
		// the next use's length don't keep finished jobs alive.
		full := unfrozen[:cap(unfrozen)]
		clear(full)
		p.allocScratch = full[:0]
	}()
	for len(unfrozen) > 0 && capacity > 1e-15 {
		var wsum float64
		for _, j := range unfrozen {
			wsum += j.weight
		}
		frozeAny := false
		next := unfrozen[:0]
		for _, j := range unfrozen {
			share := capacity * j.weight / wsum
			if share >= j.cap-1e-15 {
				j.rate = j.cap
				capacity -= j.cap
				frozeAny = true
			} else {
				next = append(next, j)
			}
		}
		unfrozen = next
		if !frozeAny {
			// Nobody hit their cap: proportional split is final.
			for _, j := range unfrozen {
				j.rate = capacity * j.weight / wsum
			}
			return
		}
	}
}

// advance applies work progress between lastAdvance and now at the
// current rates, completing any job whose remaining work hits zero.
// Rates are piecewise-constant between events, so this is exact.
func (p *Pool) advance() {
	now := p.sched.Now()
	dt := float64(now.Sub(p.lastAdvance))
	p.lastAdvance = now
	if dt <= 0 || len(p.jobs) == 0 {
		return
	}
	finished := p.finScratch[:0]
	for _, j := range p.jobs {
		progress := j.rate * dt
		if progress > j.remaining {
			progress = j.remaining
		}
		j.remaining -= progress
		p.usage[j.class] += progress
		p.totalBusy += progress
		if j.remaining <= 1e-9 {
			j.remaining = 0
			finished = append(finished, j)
		}
	}
	for _, j := range finished {
		j.done = true
		p.remove(j)
	}
	for _, j := range finished {
		if j.onDone != nil {
			j.onDone()
		}
	}
	full := finished[:cap(finished)]
	clear(full)
	p.finScratch = full[:0]
}

func (p *Pool) remove(target *Job) {
	for i, j := range p.jobs {
		if j == target {
			p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
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
	for _, j := range p.jobs {
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
	p.completion = p.sched.After(d, func() {
		p.completion = sim.Event{}
		p.advance()
		p.reschedule()
	})
}
