package squeezy_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestAllocGate runs scripts/alloc_gate.sh on synthetic benchmark
// points: growth past 2% in either allocs/op or B/op must fail the
// gate, 1% must pass, and a base without the keys must be skipped.
func TestAllocGate(t *testing.T) {
	if _, err := exec.LookPath("python3"); err != nil {
		t.Skip("alloc_gate.sh needs python3")
	}
	dir := t.TempDir()
	point := func(name string, allocs, bytes float64) string {
		p := map[string]any{
			"ns_per_op":     map[string]float64{"fig6": 2e9, "cluster-diurnal": 20e9},
			"allocs_per_op": map[string]float64{"fig6": 1e6, "cluster-diurnal": allocs},
			"bytes_per_op":  map[string]float64{"fig6": 5e8, "cluster-diurnal": bytes},
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := point("base.json", 7e6, 2e9)
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, base, head string
		pass             bool
	}{
		{"allocs +3%", base, point("a3.json", 7.21e6, 2e9), false},
		{"bytes +3%", base, point("b3.json", 7e6, 2.06e9), false},
		{"allocs and bytes +1%", base, point("ab1.json", 7.07e6, 2.02e9), true},
		{"fewer allocations", base, point("less.json", 1e6, 1e9), true},
		{"base without keys", empty, point("any.json", 9e9, 9e9), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command("sh", "scripts/alloc_gate.sh", tc.base, tc.head).CombinedOutput()
			if passed := err == nil; passed != tc.pass {
				t.Fatalf("gate passed = %v, want %v (err %v)\n%s", passed, tc.pass, err, out)
			}
		})
	}
}
