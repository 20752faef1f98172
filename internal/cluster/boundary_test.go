package cluster

import (
	"fmt"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/fault"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// The boundary-order characterization suite: it pins, on small
// hand-built runs, the rules by which the dispatcher turns its timed
// work — fleet events, fault windows, resilience decisions, pacing
// ticks, memory ticks — into epoch boundaries and orders the work due
// at one instant. Each case counts boundaries through the hostOrder
// hook (every advance and the final drain walk the live hosts once)
// and fixes the run's Fired() count and metrics table, so a change to
// which instants become boundaries, or to what fires at them, fails
// here even when the order-invariance suites still agree with
// themselves.

// boundaryCase is one characterized run: play builds and plays the
// fleet with the given host-order hook; check asserts what the case is
// about beyond the pinned fingerprint.
type boundaryCase struct {
	name       string
	play       func(hook func([]*Node) []*Node) (*Cluster, *obs.Trace)
	check      func(t *testing.T, c *Cluster, tr *obs.Trace)
	boundaries int // advances + the final drain
	fired      uint64
	table      string
}

// wantInstants requires the fleet track's instants recorded at t to
// be exactly want, in order.
func wantInstants(t *testing.T, tr *obs.Trace, at sim.Time, want ...string) {
	t.Helper()
	var got []string
	for _, ev := range tr.Fleet().Events() {
		if ev.Start == at && ev.Ph == 'i' {
			got = append(got, ev.Name)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("instants at %v = %q, want %q", at, got, want)
	}
}

var boundaryCases = []boundaryCase{
	{
		// (a) At 10 s a fleet fail, a fault close, a fault open, a
		// retry whose backoff expires, a pacing tick and a memory tick
		// are all due: they fire in that order.
		name: "same-instant classes",
		play: func(hook func([]*Node) []*Node) (*Cluster, *obs.Trace) {
			cost := costmodel.Default()
			c := New(cost, Config{
				Hosts: 4, Backend: faas.Squeezy, N: 1, KeepAlive: 60 * sim.Second,
				Resilience: &ResilienceConfig{BackoffBase: 9 * sim.Second, BackoffCap: 9 * sim.Second},
				Repace:     &RepaceConfig{PerTick: 1, Every: 5 * sim.Second},
			}, NewPolicy("round-robin", cost))
			c.hostOrder = hook
			tr := &obs.Trace{Experiment: "boundary"}
			c.AttachObs(tr)
			long, html := workload.LongHaul(), workload.ByName("HTML")
			c.Play(&sliceStream{{T: 0, Func: 0}, {T: 0, Func: 0}, {T: 0, Func: 1}}, ranks(long, html), PlayConfig{
				TickEvery: sim.Second, TickUntil: sim.Time(20 * sim.Second),
				DrainUntil: sim.Time(120 * sim.Second),
				Events: []FleetEvent{
					{T: sim.Time(5 * sim.Second), Kind: HostFail, Host: 0},
					{T: sim.Time(10 * sim.Second), Kind: HostFail, Host: 1},
				},
				Faults: []fault.Event{
					// Only host 2 — the HTML placement — fails its boot.
					{T: 0, Dur: sim.Second / 2, Kind: fault.ColdFail, Host: 2, Mag: 1},
					{T: sim.Time(8 * sim.Second), Dur: 2 * sim.Second, Kind: fault.Straggler, Host: 3, Mag: 2},
					{T: sim.Time(10 * sim.Second), Dur: 2 * sim.Second, Kind: fault.Straggler, Host: 3, Mag: 3},
				},
				FaultSeed: 7,
			})
			return c, tr
		},
		check: func(t *testing.T, c *Cluster, tr *obs.Trace) {
			// The fail queues its displaced flight for pacing, the
			// straggler windows swap cost models as they close and
			// open, and the pacing tick re-dispatches after the retry.
			wantInstants(t, tr, sim.Time(10*sim.Second),
				"host-fail", "replace-queued: LongHaul",
				"fault-close: straggler", "straggler",
				"fault-open: straggler",
				"dispatch/scale-up: HTML",
				"replace: LongHaul", "dispatch/place: LongHaul")
		},
		boundaries: 24, fired: 33,
		table: "inv=3 cold=3 warm=0 drop=0 evict=3 p50=23866.832000 p99=28766.832000 memwait=0.000000 eff=0.467869 gibs=65.375000 joins=0 fails=2 drains=0 repl=2 warmlost=0 nodes=4 active=2 live=2 failed=0 shed=0 admdrop=0 timeouts=0 retries=1 hedges=0 hedgewins=0",
	},
	{
		// (b) A zero-length fault window opened at 5 s stays open for
		// the invocations routed at 5 s: it closes at the next
		// boundary, a second one at the same instant.
		name: "zero-length window",
		play: func(hook func([]*Node) []*Node) (*Cluster, *obs.Trace) {
			cost := costmodel.Default()
			c := New(cost, Config{Hosts: 2, Backend: faas.Squeezy, N: 4, KeepAlive: 30 * sim.Second},
				NewPolicy("round-robin", cost))
			c.hostOrder = hook
			tr := &obs.Trace{Experiment: "boundary"}
			c.AttachObs(tr)
			html := workload.ByName("HTML")
			c.Play(&sliceStream{{T: sim.Time(5 * sim.Second)}, {T: sim.Time(7 * sim.Second)}}, ranks(html), PlayConfig{
				DrainUntil: sim.Time(60 * sim.Second),
				Faults: []fault.Event{
					{T: sim.Time(5 * sim.Second), Dur: 0, Kind: fault.ColdFail, Host: -1, Mag: 1},
				},
				FaultSeed: 7,
			})
			return c, tr
		},
		check: func(t *testing.T, c *Cluster, tr *obs.Trace) {
			if got := c.Stats().Failed; got != 1 {
				t.Fatalf("Failed = %d, want the 5 s invocation's boot failed inside the window", got)
			}
			wantInstants(t, tr, sim.Time(5*sim.Second),
				"fault-open: cold-fail", "dispatch/place: HTML", "fault-close: cold-fail")
		},
		boundaries: 4, fired: 9,
		table: "inv=2 cold=1 warm=0 drop=0 evict=1 p50=2143.385600 p99=2143.385600 memwait=0.000000 eff=0.000000 gibs=0.000000 joins=0 fails=0 drains=0 repl=0 warmlost=0 nodes=2 active=2 live=2 failed=1 shed=0 admdrop=0 timeouts=0 retries=0 hedges=0 hedgewins=0",
	},
	{
		// (c) A hedged, retried, faulted run: moot resilience entries
		// (resolved flights, withdrawn attempts) never set a boundary.
		name: "moot entries",
		play: func(hook func([]*Node) []*Node) (*Cluster, *obs.Trace) {
			const hosts = 4
			dur := 25 * sim.Second
			cost := costmodel.Default()
			c := New(cost, Config{
				Hosts: hosts, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
				N: 4, KeepAlive: 20 * sim.Second,
				Resilience: &ResilienceConfig{
					Timeout: 5 * sim.Second, Hedge: true, HedgeDelay: 3 * sim.Second,
				},
			}, NewPolicy("reclaim-aware", cost))
			c.hostOrder = hook
			// Sparse arrivals and no memory ticks, so resilience
			// decisions are the boundaries between invocations.
			churn, _ := genChurn(3, churnConfig{dur: dur, events: 4, hosts: hosts})
			c.Play(fleetStream(3, 6, dur, 1, 6), fleetFns(), PlayConfig{
				DrainUntil: sim.Time(10 * dur),
				Events:     churn,
				Faults: fault.GenFaults(3, fault.Config{
					Duration: dur, Events: 8, Hosts: hosts,
				}),
				FaultSeed: 3,
			})
			return c, nil
		},
		check: func(t *testing.T, c *Cluster, tr *obs.Trace) {
			m := &c.Metrics
			if m.Retries == 0 || m.Hedges == 0 || m.TimedOut == 0 {
				t.Fatalf("retries=%d hedges=%d timeouts=%d: the run must exercise the resilience queue",
					m.Retries, m.Hedges, m.TimedOut)
			}
		},
		boundaries: 62, fired: 158,
		table: "inv=31 cold=9 warm=22 drop=0 evict=15 p50=4916.593003 p99=5654.301898 memwait=0.000000 eff=0.000000 gibs=0.000000 joins=2 fails=2 drains=0 repl=3 warmlost=1 nodes=6 active=4 live=4 failed=0 shed=0 admdrop=0 timeouts=2 retries=2 hedges=6 hedgewins=1",
	},
	{
		// (d) A fleet event scheduled for a time the dispatcher clock
		// has already passed fires at the next boundary — the clock.
		name: "late fleet event",
		play: func(hook func([]*Node) []*Node) (*Cluster, *obs.Trace) {
			cost := costmodel.Default()
			c := New(cost, Config{Hosts: 2, Backend: faas.Squeezy, N: 4, KeepAlive: 30 * sim.Second},
				NewPolicy("round-robin", cost))
			c.hostOrder = hook
			tr := &obs.Trace{Experiment: "boundary"}
			c.AttachObs(tr)
			html := workload.ByName("HTML")
			c.Play(&sliceStream{{T: sim.Time(2 * sim.Second)}}, ranks(html), PlayConfig{
				DrainUntil: sim.Time(10 * sim.Second),
			})
			c.Play(&sliceStream{{T: sim.Time(15 * sim.Second)}}, ranks(html), PlayConfig{
				DrainUntil: sim.Time(30 * sim.Second),
				Events:     []FleetEvent{{T: sim.Time(3 * sim.Second), Kind: HostJoin, Host: -1}},
			})
			return c, tr
		},
		check: func(t *testing.T, c *Cluster, tr *obs.Trace) {
			wantInstants(t, tr, sim.Time(10*sim.Second), "host-join")
			if c.LiveHosts() != 3 {
				t.Fatalf("live = %d, want 3 after the late join", c.LiveHosts())
			}
		},
		boundaries: 5, fired: 6,
		table: "inv=2 cold=1 warm=1 drop=0 evict=0 p50=2143.385600 p99=2143.385600 memwait=0.000000 eff=0.000000 gibs=0.000000 joins=1 fails=0 drains=0 repl=0 warmlost=0 nodes=3 active=3 live=3 failed=0 shed=0 admdrop=0 timeouts=0 retries=0 hedges=0 hedgewins=0",
	},
}

// TestBoundaryOrder runs each characterized case at host-ID order and
// across the host-order grid, and requires the pinned boundary count,
// event count and metrics table every time.
func TestBoundaryOrder(t *testing.T) {
	for _, bc := range boundaryCases {
		t.Run(bc.name, func(t *testing.T) {
			orders := append([]orderCase{{"host-ID", func() func([]*Node) []*Node { return nil }}}, hostOrders...)
			for _, o := range orders {
				inner := o.hook()
				walks := 0
				c, tr := bc.play(func(live []*Node) []*Node {
					walks++
					if inner == nil {
						return live
					}
					return inner(live)
				})
				table := faultTable(c)
				if walks != bc.boundaries || c.Fired() != bc.fired || table != bc.table {
					t.Fatalf("%s order: boundaries=%d fired=%d\n%s\nwant boundaries=%d fired=%d\n%s",
						o.name, walks, c.Fired(), table, bc.boundaries, bc.fired, bc.table)
				}
				bc.check(t, c, tr)
			}
		})
	}
}
