package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
		{"bad faults", []string{"-faults", "meteor", "run", "fig6"}, 2},
		{"negative days", []string{"-days", "-1", "run", "fig6"}, 2},
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
