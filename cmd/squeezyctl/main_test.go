package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// TestRunRejectsBadInvocations table-tests the usage and I/O error
// paths: each must return its exit status before any experiment runs —
// the existing -o results file stays untouched and no -cpuprofile file
// is created.
func TestRunRejectsBadInvocations(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"unknown experiment", []string{"run", "nope"}, 2},
		{"unknown command", []string{"nope"}, 2},
		{"run without names", []string{"run"}, 2},
		{"bad format", []string{"-format", "yaml", "run", "fig6"}, 2},
		{"bad topology", []string{"-topology", "2x3", "run", "fig6"}, 2},
		{"topology racks above bound", []string{"-topology", "1025x1", "run", "fig6"}, 2},
		{"huge topology", []string{"-parallel", "1", "-topology", "5000000000000000000x1", "-faults", "fuzz", "run", "cluster-overcommit"}, 2},
		{"bad faults", []string{"-faults", "meteor", "run", "fig6"}, 2},
		{"negative days", []string{"-days", "-1", "run", "fig6"}, 2},
		{"days past the sim.Time horizon", []string{"-parallel", "1", "-days", "1e300", "run", "cluster-diurnal"}, 2},
		{"days just past the bound", []string{"-days", "10675.001", "run", "cluster-diurnal"}, 2},
		{"infinite days", []string{"-days", "+Inf", "run", "cluster-diurnal"}, 2},
		{"days too short to hold an invocation", []string{"-parallel", "1", "-days", "1e-14", "run", "cluster-diurnal"}, 2},
		{"days just below a minute", []string{"-parallel", "1", "-days", strconv.FormatFloat(math.Nextafter(minDays, 0), 'g', -1, 64), "run", "cluster-diurnal"}, 2},
		{"zero trials", []string{"-trials", "0", "run", "fig6"}, 2},
		{"negative trials", []string{"-trials", "-2", "run", "fig6"}, 2},
		{"negative parallel", []string{"-parallel", "-3", "run", "fig6"}, 2},
		{"bad maxworldmem", []string{"-parallel", "0", "-maxworldmem", "lots", "run", "fig6"}, 2},
		{"unknown flag", []string{"-bogus", "run", "fig6"}, 2},
		{"unwritable output", []string{"-o", filepath.Join(dir, "missing", "out.json"), "run", "fig6"}, 1},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results := filepath.Join(dir, "results.txt")
			const previous = "previous results\n"
			if err := os.WriteFile(results, []byte(previous), 0o644); err != nil {
				t.Fatal(err)
			}
			prof := filepath.Join(dir, fmt.Sprintf("cpu%d.prof", i))
			args := append([]string{"-quick", "-cpuprofile", prof, "-o", results}, tc.args...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if stderr.Len() == 0 {
				t.Fatal("no diagnostic on stderr")
			}
			if stdout.Len() != 0 {
				t.Fatalf("wrote to stdout: %q", stdout.String())
			}
			if got, err := os.ReadFile(results); err != nil || string(got) != previous {
				t.Fatalf("-o file touched before the failure: %q, %v", got, err)
			}
			if _, err := os.Stat(prof); !os.IsNotExist(err) {
				t.Fatalf("-cpuprofile started before the failure (stat: %v)", err)
			}
		})
	}
}

// TestRunAcceptsMinDays: -days at exactly minDays, one simulated
// minute, is the shortest valid trace, and it replays invocations.
func TestRunAcceptsMinDays(t *testing.T) {
	args := []string{"-quick", "-parallel", "1", "-format", "json",
		"-days", strconv.FormatFloat(minDays, 'g', -1, 64), "run", "cluster-diurnal"}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, stderr.String())
	}
	var out []struct {
		Table struct {
			Header []string   `json:"header"`
			Rows   [][]string `json:"rows"`
		} `json:"table"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("output is not a JSON result list: %v\n%s", err, stdout.String())
	}
	if len(out) != 1 || len(out[0].Table.Rows) == 0 {
		t.Fatalf("want one table with rows, got %s", stdout.String())
	}
	tab := out[0].Table
	col := slices.Index(tab.Header, "invocations")
	if col < 0 {
		t.Fatalf("no invocations column in %v", tab.Header)
	}
	for _, row := range tab.Rows {
		if row[col] == "0" {
			t.Fatalf("a one-minute trace replayed no invocations: %v", row)
		}
	}
}

// FuzzParseTopology: parseTopology never panics, "" means no topology,
// and any value it accepts has 1 <= Z <= R <= maxTopologyRacks.
func FuzzParseTopology(f *testing.F) {
	for _, s := range []string{"", "4x2", "4", "1x1", "1024x1024", "1025", "2x3", "0x0", "x", "4x", "-1x-1", "5000000000000000000x1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		racks, zones, err := parseTopology(s)
		if s == "" {
			if err != nil || racks != 0 || zones != 0 {
				t.Fatalf("parseTopology(\"\") = %d, %d, %v; want 0, 0, nil", racks, zones, err)
			}
			return
		}
		if err != nil {
			return
		}
		if zones < 1 || zones > racks || racks > maxTopologyRacks {
			t.Fatalf("parseTopology(%q) accepted %dx%d", s, racks, zones)
		}
	})
}

// TestRunWritesResults drives one quick experiment end to end through
// run: exit 0, valid JSON in the -o file, nothing on stdout.
func TestRunWritesResults(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-parallel", "1", "-format", "json", "-o", out, "run", "pluglat"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("wrote to stdout with -o set: %q", stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
}
