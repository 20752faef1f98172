package cluster

import (
	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// Dispatcher resilience: per-attempt timeouts with capped exponential
// backoff and bounded retries, optional hedged dispatch with
// first-wins cancellation, and priority-aware load shedding — all on
// simulated time, all deterministic.
//
// Every dispatch runs through one record pair (cluster.go): a flight
// is the invocation, an attempt one placement of it. Plain dispatch is
// this layer with nothing armed — no timeout, no retry budget, no
// hedge — so a plain flight races one attempt at a time and resolves
// on its host the moment that attempt completes. With resilience on,
// the machinery mirrors the fleet-dynamics split: the serial
// dispatcher owns every decision (launch, timeout, retry, hedge, shed,
// resolution) and acts only at epoch boundaries with the hosts paused;
// hosts own every consequence. An attempt's completion callback fires
// on the serving host's scheduler while that host advances, so it only
// moves the attempt to the host's settled list; the dispatcher drains
// those lists at the next boundary in host-ID order and resolves each
// invocation exactly once. The first successful attempt wins; losers
// are withdrawn with faas.Ticket.TryCancel, and a loser too far along
// to cancel runs detached, its result ignored. Timed decisions
// (timeouts, backoff expirations, hedge launches) wait in the
// dispatcher's boundary queue (boundary.go), which turns them into
// epoch boundaries, so resilience decisions happen at exact simulated
// times, identical whatever order the hosts advance in.

// ResilienceConfig turns on the dispatcher resilience layer
// (Config.Resilience; nil is plain dispatch). Zero-valued fields take
// the costmodel defaults.
type ResilienceConfig struct {
	// Timeout is the per-attempt dispatch deadline: an attempt that has
	// not completed Timeout after launch gets a speculative re-dispatch
	// raced against it (the original keeps running — first success
	// wins). Default costmodel.DispatchTimeout.
	Timeout sim.Duration
	// MaxRetries bounds re-dispatch attempts per invocation after
	// timeouts and failures. 0 means costmodel.DispatchMaxRetries; use
	// -1 to disable retries.
	MaxRetries int
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// before retry k: min(BackoffBase << k, BackoffCap). Defaults
	// costmodel.RetryBackoffBase/RetryBackoffCap.
	BackoffBase sim.Duration
	BackoffCap  sim.Duration
	// Hedge launches a backup attempt on a second host HedgeDelay after
	// the primary if it has not completed — tail-cutting for requests
	// stuck behind a degraded host. First completion wins.
	Hedge bool
	// HedgeDelay defaults to costmodel.HedgeDelay (about the fleet's
	// steady-state cold-start P99, so only tail requests hedge).
	HedgeDelay sim.Duration
	// Shed enables admission-time load shedding under demand overload:
	// an invocation whose priority-dependent threshold
	// (costmodel.ShedBase + priority*costmodel.ShedStep) is below the
	// fleet's unmet-memory pressure — broker-queued pages over total
	// capacity — is dropped immediately, lowest priority first.
	// Requires Config.HostMemBytes > 0.
	Shed bool
}

// withDefaults fills the zero-valued fields from the cost-model
// constants.
func (r ResilienceConfig) withDefaults() ResilienceConfig {
	if r.Timeout <= 0 {
		r.Timeout = costmodel.DispatchTimeout
	}
	switch {
	case r.MaxRetries == 0:
		r.MaxRetries = costmodel.DispatchMaxRetries
	case r.MaxRetries < 0:
		r.MaxRetries = 0
	}
	if r.BackoffBase <= 0 {
		r.BackoffBase = costmodel.RetryBackoffBase
	}
	if r.BackoffCap <= 0 {
		r.BackoffCap = costmodel.RetryBackoffCap
	}
	if r.HedgeDelay <= 0 {
		r.HedgeDelay = costmodel.HedgeDelay
	}
	return r
}

// resilEventKind classifies one dispatcher-side timed decision.
type resilEventKind uint8

const (
	// attemptTimeout fires when an attempt exceeds the dispatch
	// deadline.
	attemptTimeout resilEventKind = iota
	// retryLaunch fires when a retry's backoff expires.
	retryLaunch
	// hedgeLaunch fires HedgeDelay after the primary attempt.
	hedgeLaunch
)

// shedConfigured reports whether any admission-shedding mode is on:
// the resilience layer's (ResilienceConfig.Shed) or the
// recovery-storm controller's domain-aware variant (RepaceConfig.Shed).
func (c *Cluster) shedConfigured() bool {
	return (c.resil != nil && c.resil.Shed) || (c.repace != nil && c.repace.Shed)
}

// shouldShed decides admission-time shedding on demand overload: the
// fleet's queued-but-unmet memory (broker waiters plus the paced
// re-placement backlog) as a fraction of the active hosts' real
// capacity, against the invocation's priority-dependent threshold.
// Committed pages are the wrong signal here — an elastic fleet sits
// full of reclaimable keep-alive pools by design, so committed stays
// near capacity even when idle; the broker queues, by contrast, are
// near zero on a healthy fleet and explode exactly when demand
// outruns what reclaim can free. The capacity term shrinks the moment
// a domain dies and the backlog term rises the same instant, so a
// correlated failure tightens admission immediately. Low-priority work
// sheds first; the highest class holds on until the unmet backlog
// itself covers the whole surviving fleet's memory.
func (c *Cluster) shouldShed(fn *workload.Function) bool {
	if !c.shedConfigured() || len(c.active) == 0 {
		return false
	}
	capacity := c.activeCapacityPages()
	if capacity <= 0 {
		return false
	}
	queued := c.repaceBacklogPages()
	for _, n := range c.active {
		queued += n.QueuedPages()
	}
	pressure := float64(queued) / float64(capacity)
	return pressure > costmodel.ShedBase+float64(fn.Priority)*costmodel.ShedStep
}

// shedInvocation drops one invocation at admission, accounting it on
// the dispatcher-side counters.
func (c *Cluster) shedInvocation(fn *workload.Function, onDone func(faas.Result)) {
	c.Metrics.Shed++
	if c.fleetObs != nil {
		c.fleetObs.Count("resil/shed", 1)
		c.fleetObs.Instant("shed: "+fn.Name, obs.CatFault,
			obs.I("priority", int64(fn.Priority)))
	}
	if onDone != nil {
		onDone(faas.Result{Fn: fn, Arrival: c.now, Done: c.now, Dropped: true})
	}
}

// exclOf returns the host-exclusion predicate for the flight's next
// attempt — the hosts already racing an attempt of it — or nil when
// nothing is outstanding or there is no flight yet (no allocation on
// the common path).
func exclOf(fl *flight) func(*Node) bool {
	if fl == nil || len(fl.outstanding) == 0 {
		return nil
	}
	return func(n *Node) bool {
		for _, att := range fl.outstanding {
			if att.node == n {
				return true
			}
		}
		return false
	}
}

// hedgeAttempt launches the flight's one backup attempt on a host not
// already racing it — but only when that host can serve it without
// queueing: an idle warm instance (which already owns its memory), or
// an in-place scale-up whose host has enough free-and-unclaimed memory
// to admit the new instance outright. Anything less makes the hedge a
// load amplifier — a queued hedge adds to exactly the congestion it is
// meant to dodge, and a memory-starved spawn feeds demand into a
// reclaim path that may itself be the thing limping. Under a localized
// fault (one straggling host) the rest of the fleet has headroom and
// hedges flow; under fleet-wide degradation every broker has a queue
// and this gate suppresses hedging entirely. The hedge spends no retry
// budget.
func (c *Cluster) hedgeAttempt(fl *flight) {
	if fl.hedged || len(fl.outstanding) == 0 {
		return
	}
	tier, n, fv := c.chooseVM(fl.fn, exclOf(fl))
	if fv == nil {
		return
	}
	switch tier {
	case "warm":
	case "scale-up", "place":
		if n.Host.CapacityPages() > 0 && n.HeadroomPages() < units.BytesToPages(fl.fn.MemoryLimit) {
			return
		}
	default:
		return // fallback tier = queue behind someone: never hedge into that
	}
	fl.hedged = true
	c.Metrics.Hedges++
	if c.fleetObs != nil {
		c.fleetObs.Count("resil/hedges", 1)
		c.fleetObs.Instant("hedge: "+fl.fn.Name, obs.CatFault,
			obs.I("host", int64(n.ID)))
	}
	c.startAttempt(fl, tier, n, fv, true)
}

// timeoutAttempt handles an attempt exceeding the dispatch deadline.
// The slow attempt is NOT withdrawn — in a merely-backlogged fleet its
// queue position is the fastest path to completion, and cancelling it
// would convert ordinary congestion into failures. Instead a
// speculative re-dispatch races it from another host: whichever
// completes successfully first wins, and resolveFlight withdraws the
// losers. A stuck attempt (reclaim stall, straggler host) thus gets
// escaped without betting against a healthy queue.
func (c *Cluster) timeoutAttempt(fl *flight, att *attempt) {
	if att.settled || att.cancelled || att.dead {
		return // settled results resolve via resolveSettled, not here
	}
	if !c.canRetry(fl) {
		return // budget spent: the racers ride to the horizon
	}
	c.Metrics.TimedOut++
	if c.fleetObs != nil {
		c.fleetObs.Count("resil/timeouts", 1)
		c.fleetObs.Instant("timeout: "+fl.fn.Name, obs.CatFault,
			obs.I("host", int64(att.node.ID)), obs.I("attempt", int64(att.idx)))
	}
	c.scheduleRetry(fl)
}

// attemptFailed handles a settled failure (boot failure, crash, OOM
// drop, or a placement the fleet could not admit; n is nil for the
// latter). With another attempt still racing the flight just waits;
// otherwise a retry is scheduled, or the failure becomes final.
func (c *Cluster) attemptFailed(fl *flight, n *Node, res faas.Result) {
	if len(fl.outstanding) > 0 {
		return
	}
	if c.canRetry(fl) {
		c.scheduleRetry(fl)
		return
	}
	c.finalFail(fl, n, res)
}

// canRetry reports whether the flight may still retry: resilience is
// on, boundaries remain to retry at, and its budget is not spent.
func (c *Cluster) canRetry(fl *flight) bool {
	return c.resil != nil && !c.horizon && fl.retries < c.resil.MaxRetries
}

// scheduleRetry arms the flight's next attempt after capped
// exponential backoff.
func (c *Cluster) scheduleRetry(fl *flight) {
	backoff := c.resil.BackoffBase << fl.retries
	if backoff <= 0 || backoff > c.resil.BackoffCap {
		backoff = c.resil.BackoffCap
	}
	fl.retries++
	c.Metrics.Retries++
	if c.fleetObs != nil {
		c.fleetObs.Count("resil/retries", 1)
		c.fleetObs.Instant("retry: "+fl.fn.Name, obs.CatFault,
			obs.I("retry", int64(fl.retries)), obs.I("backoff_ms", int64(backoff.Milliseconds())))
	}
	c.q.push(entry{t: c.now.Add(backoff), class: classResil, resil: retryLaunch, fl: fl})
}

// finalFail resolves the flight with its terminal failure. The result
// is accounted on the host that produced it; n is nil when the fleet
// could not admit the last attempt at all, and the failure is then the
// dispatcher-side admission drop.
func (c *Cluster) finalFail(fl *flight, n *Node, res faas.Result) {
	if n != nil {
		fl.deliver(n, res)
		return
	}
	fl.resolved = true
	c.Metrics.AdmissionDrops++
	if c.fleetObs != nil {
		c.fleetObs.Count("admission_drops", 1)
		c.fleetObs.Instant("admission-drop: "+fl.fn.Name, obs.CatInvoke)
	}
	if fl.onDone != nil {
		fl.onDone(res)
	}
}

// resolveSettled drains every host's settled attempts in host-ID
// order and resolves their flights: the first successful completion in
// canonical order wins, failures feed the retry machinery, and
// results of already-resolved flights are dropped (a hedge loser that
// could not be cancelled). Runs serially at a boundary, before the
// due resilience decisions fire, so completions beat same-instant
// timeouts. With resilience off every list is empty.
func (c *Cluster) resolveSettled() {
	for _, n := range c.Nodes {
		if len(n.settled) == 0 {
			continue
		}
		for _, att := range n.settled {
			c.settleAttempt(att)
		}
		clear(n.settled)
		n.settled = n.settled[:0]
	}
}

// settleAttempt resolves one completed attempt against its flight.
func (c *Cluster) settleAttempt(att *attempt) {
	fl := att.fl
	fl.removeOutstanding(att)
	if fl.resolved {
		return // a racer already won; this result is ignored
	}
	if !att.res.Failed && !att.res.Dropped {
		c.resolveFlight(fl, att)
		return
	}
	c.attemptFailed(fl, att.node, att.res)
}

// resolveFlight crowns the winning attempt: deliver its result on its
// host's metrics, and withdraw every loser still racing. A loser too
// far along to cancel runs detached; its eventual result is ignored.
func (c *Cluster) resolveFlight(fl *flight, att *attempt) {
	fl.resolved = true
	if att.hedge {
		c.Metrics.HedgeWins++
		if c.fleetObs != nil {
			c.fleetObs.Count("resil/hedge_wins", 1)
			c.fleetObs.Instant("hedge-win: "+fl.fn.Name, obs.CatFault,
				obs.I("host", int64(att.node.ID)))
		}
	}
	for _, other := range fl.outstanding {
		if other == att || other.settled || other.cancelled || other.dead {
			continue
		}
		if other.ticket.TryCancel() {
			other.cancelled = true
			other.node.removeAttempt(other)
		}
	}
	fl.deliver(att.node, att.res)
}

// finishResil closes out the resilience layer after the final drain:
// completions from the drain period resolve, and failures that would
// have retried become final — there are no boundaries left to retry
// at. Flights whose attempts never completed by the horizon stay
// unresolved, exactly as queued work stays unserved.
func (c *Cluster) finishResil() {
	c.horizon = true
	c.resolveSettled()
}

// removeOutstanding drops the attempt from the flight's racing list,
// preserving launch order.
func (fl *flight) removeOutstanding(att *attempt) {
	for i, a := range fl.outstanding {
		if a == att {
			fl.outstanding = append(fl.outstanding[:i], fl.outstanding[i+1:]...)
			return
		}
	}
}
