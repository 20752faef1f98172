package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"squeezy/internal/sim"
	"squeezy/internal/trace"
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

// TestEventsMatchWriteCSV: -events prints exactly trace.WriteCSV of the
// generator its flags describe, byte for byte, in fleet and in
// single-trace form. Nothing in the repo reads the file back, so this
// pins the exact-replay claim at the binary.
func TestEventsMatchWriteCSV(t *testing.T) {
	const seed = 7
	dur := 3 * sim.Minute
	bl, bg := 15*sim.Second, 30*sim.Second
	cases := []struct {
		name string
		args []string
		src  trace.Stream
	}{
		{"fleet", []string{"-funcs", "3", "-zipf", "1.3"}, trace.NewFleetStream(seed, trace.FleetConfig{
			Funcs: 3, Duration: dur, ZipfS: 1.3, TotalBaseRPS: 2, TotalBurstRPS: 25, BurstLen: bl, BurstGap: bg,
		})},
		{"single", nil, trace.NewBursty(seed, trace.BurstyConfig{
			Duration: dur, BaseRPS: 2, BurstRPS: 25, BurstLen: bl, BurstGap: bg,
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want bytes.Buffer
			n, err := trace.WriteCSV(&want, tc.src)
			if err != nil || n < 10 {
				t.Fatalf("WriteCSV wrote %d rows, err %v", n, err)
			}
			args := append([]string{"-events", "-seed", strconv.Itoa(seed), "-minutes", "3",
				"-base", "2", "-burst", "25", "-burstlen", "15", "-burstgap", "30"}, tc.args...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d (stderr: %s)", args, code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
				t.Fatalf("%v: %d bytes differ from WriteCSV's %d", args, stdout.Len(), want.Len())
			}
		})
	}
}
