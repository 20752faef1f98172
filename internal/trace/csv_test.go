package trace

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"

	"squeezy/internal/sim"
)

// TestCSVEventsRoundTrip: writing a fleet stream to the events layout
// and parsing the rows back reproduces the stream bit for bit.
func TestCSVEventsRoundTrip(t *testing.T) {
	cfg := FleetConfig{Funcs: 8, Duration: 2 * sim.Minute, TotalBaseRPS: 4, TotalBurstRPS: 20}
	var buf bytes.Buffer
	n, err := WriteCSV(&buf, NewFleetStream(11, cfg))
	if err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	want := drain(NewFleetStream(11, cfg))
	if n != len(want) {
		t.Fatalf("wrote %d rows, want %d", n, len(want))
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parsing the written CSV: %v", err)
	}
	if len(rows) == 0 || rows[0][0] != "func" || rows[0][1] != "t_ns" {
		t.Fatalf("header %v, want [func t_ns]", rows[:min(1, len(rows))])
	}
	got := make([]TaggedInvocation, 0, len(rows)-1)
	for _, rec := range rows[1:] {
		fn, err1 := strconv.Atoi(rec[0])
		ns, err2 := strconv.ParseInt(rec[1], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("malformed row %q", rec)
		}
		got = append(got, TaggedInvocation{T: sim.Time(ns), Func: fn})
	}
	if len(got) != len(want) {
		t.Fatalf("read %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}
