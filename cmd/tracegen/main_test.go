package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestRunRejectsBadInvocations: every usage error exits 2 with a
// message before any output is written. A -minutes outside
// [1, maxMinutes] used to panic in makeslice or print a negative-length
// fleet.
func TestRunRejectsBadInvocations(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"negative minutes", []string{"-minutes", "-1"}},
		{"zero minutes", []string{"-minutes", "0"}},
		{"negative minutes fleet", []string{"-minutes", "-1", "-funcs", "3"}},
		{"minutes past sim.Duration", []string{"-minutes", "100000000000000"}},
		{"minutes just past the bound", []string{"-minutes", strconv.Itoa(maxMinutes + 1), "-churn"}},
		{"events with churn", []string{"-events", "-churn"}},
		{"churn with funcs", []string{"-churn", "-funcs", "3"}},
		{"non-positive burstlen", []string{"-burstlen", "0"}},
		{"unknown flag", []string{"-bogus"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("wrote output before failing: %q", stdout.String())
			}
			if stderr.Len() == 0 {
				t.Fatal("no error message")
			}
		})
	}
}

// TestRunModes smoke-tests every output mode on a one-minute trace:
// each exits 0 and starts with its header.
func TestRunModes(t *testing.T) {
	cases := []struct {
		args   []string
		header string
	}{
		{nil, "total invocations: "},
		{[]string{"-csv"}, "minute,invocations\n"},
		{[]string{"-churn"}, "minute  creations  evictions\n"},
		{[]string{"-churn", "-csv"}, "minute,creations,evictions\n"},
		{[]string{"-events"}, "func,t_ns\n"},
		{[]string{"-funcs", "3"}, "fleet: 3 functions, "},
		{[]string{"-funcs", "3", "-csv"}, "func,minute,invocations\n"},
		{[]string{"-funcs", "3", "-events"}, "func,t_ns\n"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-minutes", "1"}, tc.args...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d (stderr: %s)", args, code, stderr.String())
		}
		if !strings.HasPrefix(stdout.String(), tc.header) {
			t.Fatalf("%v: output starts %q, want %q", args, stdout.String(), tc.header)
		}
	}
}
