package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"squeezy/internal/cluster"
	"squeezy/internal/fault"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
)

// clusterNames returns every registered cluster-* experiment; the fleet
// layer must never lose one silently.
func clusterNames(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, n := range Names() {
		if strings.HasPrefix(n, "cluster-") {
			names = append(names, n)
		}
	}
	if len(names) < 3 {
		t.Fatalf("only %d cluster experiments registered: %v", len(names), names)
	}
	return names
}

// TestClusterParallelMatchesSerial is the acceptance gate for the fleet
// experiments: running every cluster-* driver through the worker pool
// must be byte-identical to a serial run.
func TestClusterParallelMatchesSerial(t *testing.T) {
	names := clusterNames(t)
	opts := Options{Seed: 5, Quick: true}
	serial, err := Run(names, opts, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(names, opts, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(reports []Report) []byte {
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, reports); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(serial), encode(par)) {
		t.Fatal("parallel cluster run differs from serial run")
	}
}

// TestClusterPoliciesTableShape checks the acceptance criterion that
// cluster-policies emits a policy x backend x host-count table: every
// combination appears exactly once.
func TestClusterPoliciesTableShape(t *testing.T) {
	tab := ClusterPoliciesPlan(Options{Seed: 2, Quick: true}).runSerial(newWorld()).Table()
	if got := len(tab.Header); got < 10 {
		t.Fatalf("header has %d columns: %v", got, tab.Header)
	}
	seen := map[string]bool{}
	policies := map[string]bool{}
	backends := map[string]bool{}
	hosts := map[string]bool{}
	for _, row := range tab.Rows {
		key := row[0] + "/" + row[1] + "/" + row[2]
		if seen[key] {
			t.Fatalf("duplicate combination %s", key)
		}
		seen[key] = true
		policies[row[0]] = true
		backends[row[1]] = true
		hosts[row[2]] = true
	}
	if len(policies) < 4 || len(backends) < 2 || len(hosts) < 2 {
		t.Fatalf("sweep incomplete: %d policies, %d backends, %d host counts",
			len(policies), len(backends), len(hosts))
	}
	if len(tab.Rows) != len(policies)*len(backends)*len(hosts) {
		t.Fatalf("rows = %d, want full cross product %d", len(tab.Rows),
			len(policies)*len(backends)*len(hosts))
	}
}

// TestClusterScaleRowsGrow sanity-checks the weak-scaling sweep: hosts
// and invocations should both grow down the table.
func TestClusterScaleRowsGrow(t *testing.T) {
	tab := ClusterScalePlan(Options{Seed: 2, Quick: true}).runSerial(newWorld()).Table()
	if len(tab.Rows) < 2 {
		t.Fatalf("want >= 2 scale points, got %d", len(tab.Rows))
	}
	prev := ""
	for _, row := range tab.Rows {
		if row[0] <= prev {
			t.Fatalf("host counts not increasing: %v", tab.Rows)
		}
		prev = row[0]
	}
}

// TestOverlayFillsOnlyNilFields: each CLI overlay fills a cell field
// only when the cell left it nil — so a sweep's own topology, fault
// plan, phase bounds and sketch survive every flag — and the topology
// goes first, so a fuzzed plan draws rack-level kinds.
func TestOverlayFillsOnlyNilFields(t *testing.T) {
	opts := Options{Seed: 3, TopoRacks: 4, TopoZones: 2, FaultScenario: "fuzz", Sketch: true}
	bare := fleetCfg{hosts: 4, duration: 60 * sim.Second}
	overlay(opts, &bare)
	if bare.topo == nil || bare.topo.Racks != 4 || bare.topo.Zones != 2 {
		t.Fatalf("topology = %+v, want 4 racks in 2 zones", bare.topo)
	}
	racked := false
	for _, ev := range bare.faults {
		racked = racked || ev.Kind.Domain()
	}
	if !racked || bare.faultSeed != 3 || len(bare.phases) != 1 || bare.sketch == nil {
		t.Fatalf("bare cell: faults=%v seed=%d phases=%v sketch=%v, want a racked fuzz plan, seed 3, one phase bound and a sketch",
			bare.faults, bare.faultSeed, bare.phases, bare.sketch)
	}

	own := fleetCfg{
		hosts: 4, duration: 60 * sim.Second,
		topo:      &cluster.Topology{Racks: 2},
		faults:    []fault.Event{{T: 1, Dur: 2, Kind: fault.Straggler, Host: 0, Mag: 2}},
		faultSeed: 9,
		phases:    []sim.Time{5},
		sketch:    &stats.SketchConfig{K: 7},
	}
	want := own
	overlay(opts, &own)
	if !reflect.DeepEqual(own, want) {
		t.Fatalf("overlay rewrote a configured cell:\n%+v\nwant\n%+v", own, want)
	}
}
