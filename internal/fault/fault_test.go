package fault

import (
	"reflect"
	"sort"
	"testing"

	"squeezy/internal/sim"
)

// TestGenFaultsDeterministic: the fuzzed plan is a pure function of
// (seed, config) — same seed reproduces the plan exactly, adjacent
// seeds diverge.
func TestGenFaultsDeterministic(t *testing.T) {
	cfg := Config{Duration: 60 * sim.Second, Events: 12, Hosts: 4}
	a := GenFaults(7, cfg)
	b := GenFaults(7, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%v\n%v", a, b)
	}
	if len(a) != cfg.Events {
		t.Fatalf("plan has %d events, want %d", len(a), cfg.Events)
	}
	c := GenFaults(8, cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("adjacent seeds produced identical plans")
	}
}

// TestGenFaultsShape: windows start inside the trace, are sorted, and
// carry kind-appropriate magnitudes; targets mix fleet-wide (-1) with
// explicit (possibly dangling) host IDs.
func TestGenFaultsShape(t *testing.T) {
	cfg := Config{Duration: 120 * sim.Second, Events: 64, Hosts: 4}
	events := GenFaults(3, cfg)
	if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].T < events[j].T }) {
		t.Fatal("plan is not time-sorted")
	}
	sawAll, sawTargeted := false, false
	for _, ev := range events {
		if ev.T <= 0 || ev.T >= sim.Time(cfg.Duration) {
			t.Fatalf("window start %v outside (0, %v)", ev.T, cfg.Duration)
		}
		if ev.Dur <= 0 || ev.Dur > cfg.Duration/4 {
			t.Fatalf("window length %v outside (0, %v]", ev.Dur, cfg.Duration/4)
		}
		switch {
		case ev.Host == -1:
			sawAll = true
		case ev.Host >= 0 && ev.Host < 2*cfg.Hosts:
			sawTargeted = true
		default:
			t.Fatalf("host target %d outside -1 or [0, %d)", ev.Host, 2*cfg.Hosts)
		}
		switch ev.Kind {
		case ReclaimStall:
			if ev.Mag < 6 || ev.Mag > 16 {
				t.Fatalf("stall magnitude %v outside [6, 16] s", ev.Mag)
			}
		case ReclaimPartial, ColdFail, ExecCrash:
			if ev.Mag <= 0 || ev.Mag >= 1 {
				t.Fatalf("%v magnitude %v outside (0, 1)", ev.Kind, ev.Mag)
			}
		case Straggler:
			if ev.Mag < 2 {
				t.Fatalf("straggler scale %v below 2", ev.Mag)
			}
		default:
			t.Fatalf("unknown kind %v", ev.Kind)
		}
	}
	if !sawAll || !sawTargeted {
		t.Fatalf("plan lacks target variety: all=%v targeted=%v", sawAll, sawTargeted)
	}
}

// TestScenarios: every advertised name resolves, unknown names do not,
// and "none" is the empty plan.
func TestScenarios(t *testing.T) {
	for _, name := range ScenarioNames() {
		evs, ok := Scenario(name, 4, 180*sim.Second)
		if !ok {
			t.Fatalf("advertised scenario %q did not resolve", name)
		}
		if name == "none" && len(evs) != 0 {
			t.Fatalf("scenario none has %d events, want empty", len(evs))
		}
		if name != "none" && len(evs) == 0 {
			t.Fatalf("scenario %q is empty", name)
		}
	}
	if _, ok := Scenario("nope", 4, 180*sim.Second); ok {
		t.Fatal("unknown scenario resolved")
	}
}

// TestSubSeedStreams: per-host decision streams are distinct across
// hosts and across adjacent plan seeds.
func TestSubSeedStreams(t *testing.T) {
	seen := map[uint64]string{}
	for seed := uint64(1); seed <= 4; seed++ {
		for host := 0; host < 8; host++ {
			s := SubSeed(seed, host)
			if prev, dup := seen[s]; dup {
				t.Fatalf("SubSeed collision: seed=%d host=%d vs %s", seed, host, prev)
			}
			seen[s] = "earlier stream"
		}
	}
}

// TestInjectorRecompute: overlapping windows combine to the most
// severe magnitude per kind, and closing restores the milder one.
func TestInjectorRecompute(t *testing.T) {
	in := NewInjector(0, 1)
	mild := Event{Kind: ReclaimStall, Mag: 2}
	severe := Event{Kind: ReclaimStall, Mag: 10}
	in.Open(mild)
	in.Open(severe)
	if got := in.ReclaimStall(); got != 10*sim.Second {
		t.Fatalf("combined stall %v, want the severe 10s", got)
	}
	in.Close(severe)
	if got := in.ReclaimStall(); got != 2*sim.Second {
		t.Fatalf("stall after closing severe window %v, want 2s", got)
	}
	in.Close(mild)
	if got := in.ReclaimStall(); got != 0 {
		t.Fatalf("stall with no windows %v, want 0", got)
	}
	// Partial caps combine to the smallest completed fraction.
	in.Open(Event{Kind: ReclaimPartial, Mag: 0.8})
	in.Open(Event{Kind: ReclaimPartial, Mag: 0.3})
	if got := in.ReclaimFraction(); got != 0.3 {
		t.Fatalf("combined fraction %v, want 0.3", got)
	}
	// Closing a window never opened here is a no-op.
	in.Close(Event{Kind: Straggler, Mag: 4})
	if got := in.ReclaimFraction(); got != 0.3 {
		t.Fatalf("no-op close changed fraction to %v", got)
	}
}

// TestInjectorIdleDefaults: outside every window the injector answers
// the identity for each probe and consumes no decision variates.
func TestInjectorIdleDefaults(t *testing.T) {
	in := NewInjector(3, 9)
	for i := 0; i < 100; i++ {
		if in.FailCold() || in.CrashExec() {
			t.Fatal("idle injector injected a failure")
		}
	}
	if in.ReclaimStall() != 0 || in.ReclaimFraction() != 1 || in.StragglerScale() != 1 {
		t.Fatal("idle injector reports non-identity effects")
	}
	if in.ctr != 0 {
		t.Fatalf("idle probes consumed %d decision variates, want 0", in.ctr)
	}
}

// TestInjectorDecisionStreamDeterministic: the i-th decision on a host
// is a pure function of (plan seed, host, i) — a fresh injector with
// the same identity replays the exact decision sequence, and a
// different host diverges.
func TestInjectorDecisionStreamDeterministic(t *testing.T) {
	draw := func(host int, n int) []bool {
		in := NewInjector(host, 42)
		in.Open(Event{Kind: ColdFail, Mag: 0.5})
		out := make([]bool, n)
		for i := range out {
			out[i] = in.FailCold()
		}
		return out
	}
	a, b := draw(1, 200), draw(1, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, host) replayed a different decision stream")
	}
	if reflect.DeepEqual(a, draw(2, 200)) {
		t.Fatal("different hosts drew identical decision streams")
	}
	fails := 0
	for _, f := range a {
		if f {
			fails++
		}
	}
	// Mag 0.5 over 200 draws: a stream stuck at one outcome means the
	// variate construction is broken.
	if fails == 0 || fails == 200 {
		t.Fatalf("degenerate decision stream: %d/200 failures at p=0.5", fails)
	}
}

// TestDomainKinds: the Domain predicate separates rack-level kinds
// from host-level ones exactly.
func TestDomainKinds(t *testing.T) {
	host := []Kind{ReclaimStall, ReclaimPartial, ColdFail, ExecCrash, Straggler}
	domain := []Kind{RackFail, RackDegrade, RackPartition}
	for _, k := range host {
		if k.Domain() {
			t.Fatalf("%v classified as a domain kind", k)
		}
	}
	for _, k := range domain {
		if !k.Domain() {
			t.Fatalf("%v not classified as a domain kind", k)
		}
	}
}

// TestGenFaultsRackGating: plans stay host-only with Racks unset —
// byte-identical draws to a build without the domain kinds — and mix
// in rack-level events, with rack-index targets (possibly dangling),
// once a topology is declared.
func TestGenFaultsRackGating(t *testing.T) {
	flat := GenFaults(3, Config{Duration: 120 * sim.Second, Events: 64, Hosts: 4})
	for _, ev := range flat {
		if ev.Kind.Domain() {
			t.Fatalf("flat plan drew domain kind %v", ev.Kind)
		}
	}
	racked := GenFaults(3, Config{Duration: 120 * sim.Second, Events: 64, Hosts: 4, Racks: 2})
	sawDomain := false
	for _, ev := range racked {
		if !ev.Kind.Domain() {
			continue
		}
		sawDomain = true
		if ev.Host < 0 || ev.Host >= 4 {
			t.Fatalf("%v targets rack %d outside [0, %d)", ev.Kind, ev.Host, 4)
		}
		switch ev.Kind {
		case RackFail:
			if ev.Mag < 0.5 || ev.Mag > 1 {
				t.Fatalf("rack-fail magnitude %v outside [0.5, 1]", ev.Mag)
			}
		case RackDegrade:
			if ev.Mag < 2 {
				t.Fatalf("rack-degrade scale %v below 2", ev.Mag)
			}
		}
	}
	if !sawDomain {
		t.Fatal("racked plan drew no domain kinds in 64 events")
	}
}

// TestDomainScenarios: every advertised rack-level scenario resolves
// to domain-kind events, disjoint from the host-level names.
func TestDomainScenarios(t *testing.T) {
	for _, name := range DomainScenarioNames() {
		evs, ok := Scenario(name, 8, 180*sim.Second)
		if !ok {
			t.Fatalf("advertised domain scenario %q did not resolve", name)
		}
		if len(evs) == 0 {
			t.Fatalf("domain scenario %q is empty", name)
		}
		for _, ev := range evs {
			if !ev.Kind.Domain() {
				t.Fatalf("scenario %q contains host-level kind %v", name, ev.Kind)
			}
		}
		for _, host := range ScenarioNames() {
			if name == host {
				t.Fatalf("domain scenario %q shadows a host-level name", name)
			}
		}
	}
}

// TestDomainDraw: the rack-expansion stream is deterministic, in
// [0, 1), and independent across hosts and events — and entirely
// separate from the injector decision streams, so expanding a rack
// never perturbs a host's own draws.
func TestDomainDraw(t *testing.T) {
	ev := Event{T: sim.Time(7 * sim.Second), Kind: RackFail, Host: 1, Mag: 0.7}
	seen := map[float64]bool{}
	for host := 0; host < 16; host++ {
		a := DomainDraw(5, ev, host)
		b := DomainDraw(5, ev, host)
		if a != b {
			t.Fatalf("host %d draw not deterministic: %v vs %v", host, a, b)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("host %d draw %v outside [0, 1)", host, a)
		}
		seen[a] = true
	}
	if len(seen) < 12 {
		t.Fatalf("only %d distinct draws over 16 hosts", len(seen))
	}
	other := ev
	other.T = sim.Time(8 * sim.Second)
	if DomainDraw(5, ev, 3) == DomainDraw(5, other, 3) {
		t.Fatal("different events produced identical draws")
	}
	if DomainDraw(5, ev, 3) == DomainDraw(6, ev, 3) {
		t.Fatal("different seeds produced identical draws")
	}
}

// FuzzGenFaults: the generator must never panic, whatever the config
// — zero, tiny or negative durations, negative event counts, and host
// or rack counts too large to double — and every window it does emit
// must start strictly inside the trace and last 1 ns to Duration/4.
// The committed corpus (testdata/fuzz/FuzzGenFaults) holds the
// configs that once panicked.
func FuzzGenFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, duration int64, events, hosts, racks int) {
		events = min(events, 64)
		cfg := Config{Duration: sim.Duration(duration), Events: events, Hosts: hosts, Racks: racks}
		plan := GenFaults(seed, cfg)
		if want := max(events, 0); cfg.Duration >= 4 && len(plan) != want {
			t.Fatalf("%+v: %d events, want %d", cfg, len(plan), want)
		}
		for _, ev := range plan {
			if ev.T <= 0 || ev.T >= sim.Time(cfg.Duration) {
				t.Fatalf("%+v: window at %d outside (0, %d)", cfg, ev.T, cfg.Duration)
			}
			if ev.Dur < 1 || ev.Dur > max(1, cfg.Duration/4) {
				t.Fatalf("%+v: window length %d outside [1, Duration/4]", cfg, ev.Dur)
			}
			if ev.Kind.Domain() && racks <= 0 {
				t.Fatalf("%+v: domain kind %v without racks", cfg, ev.Kind)
			}
		}
	})
}
