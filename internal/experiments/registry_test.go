package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The registry is the CLI's source of truth: every driver must be
// present, runnable in Quick mode, and a pure function of its seed —
// the property the parallel runner's byte-identity guarantee rests on.

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "pluglat",
		"abl-batching", "abl-zeroing", "abl-policy", "abl-partition",
		"cluster-policies", "cluster-scale", "cluster-overcommit",
		"cluster-elastic",
	}
	for _, n := range want {
		if _, ok := Get(n); !ok {
			t.Errorf("experiment %q not registered", n)
		}
	}
	if got := len(Names()); got < 11 {
		t.Fatalf("registry has %d experiments, want >= 11", got)
	}
}

func TestNamesNaturalOrder(t *testing.T) {
	names := Names()
	idx := func(n string) int {
		for i, v := range names {
			if v == n {
				return i
			}
		}
		t.Fatalf("%q missing from Names()", n)
		return -1
	}
	if !(idx("fig2") < idx("fig5") && idx("fig9") < idx("fig10") && idx("fig10") < idx("fig11")) {
		t.Fatalf("figures not in numeric order: %v", names)
	}
}

// TestRegistryQuickDeterminism runs every registered experiment twice
// in Quick mode under the same seed and requires byte-identical JSON.
func TestRegistryQuickDeterminism(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			t.Parallel()
			opts := Options{Seed: 11, Quick: true}
			runJSON := func() []byte {
				tab := e.Run(opts).Table()
				if tab == nil {
					t.Fatal("nil table")
				}
				if len(tab.Rows) == 0 {
					t.Fatal("empty table")
				}
				j, err := tab.JSON()
				if err != nil {
					t.Fatal(err)
				}
				return j
			}
			if a, b := runJSON(), runJSON(); !bytes.Equal(a, b) {
				t.Fatalf("two runs with seed 11 differ:\n%s\n---\n%s", a, b)
			}
		})
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterPlan did not panic")
		}
	}()
	RegisterPlan("fig1", "dup", func(Options) *Plan { return nil })
}

func TestTableEncoders(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "b"}}
	tab.AddRow("1", "x,y")
	j, err := tab.JSON()
	if err != nil || !strings.Contains(string(j), `"rows"`) {
		t.Fatalf("JSON: %v %s", err, j)
	}
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "a,b\n1,\"x,y\"\n" {
		t.Fatalf("CSV = %q", got)
	}
}
