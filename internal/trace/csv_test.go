package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"squeezy/internal/sim"
)

// TestCSVEventsRoundTrip: writing a fleet stream to the events layout
// and reading it back reproduces the stream bit for bit.
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
	cs, err := OpenCSV(&buf)
	if err != nil {
		t.Fatalf("OpenCSV: %v", err)
	}
	got := drain(cs)
	if cs.Err() != nil {
		t.Fatalf("stream error: %v", cs.Err())
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

// TestCSVCountsExpansion: the tracegen -csv per-minute count layout
// re-expands into evenly spaced invocations, merged across functions
// in (time, func) order, with per-minute counts preserved.
func TestCSVCountsExpansion(t *testing.T) {
	in := "func,minute,invocations\n0,0,3\n0,2,1\n1,0,2\n1,1,4\n"
	cs, err := OpenCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("OpenCSV: %v", err)
	}
	got := drain(cs)
	if cs.Err() != nil {
		t.Fatalf("stream error: %v", cs.Err())
	}
	if len(got) != 10 {
		t.Fatalf("expanded %d invocations, want 10", len(got))
	}
	counts := map[[2]int]int{}
	for i, inv := range got {
		if i > 0 && (inv.T < got[i-1].T || (inv.T == got[i-1].T && inv.Func < got[i-1].Func)) {
			t.Fatalf("expansion not sorted at %d", i)
		}
		m := int(sim.Duration(inv.T) / sim.Minute)
		counts[[2]int{inv.Func, m}]++
	}
	want := map[[2]int]int{{0, 0}: 3, {0, 2}: 1, {1, 0}: 2, {1, 1}: 4}
	for k, v := range want {
		if counts[k] != v {
			t.Fatalf("func %d minute %d: %d invocations, want %d", k[0], k[1], counts[k], v)
		}
	}

	// Single-trace layout: no func column, everything lands on func 0.
	single, err := OpenCSV(strings.NewReader("minute,invocations\n0,2\n1,1\n"))
	if err != nil {
		t.Fatalf("OpenCSV single: %v", err)
	}
	sgot := drain(single)
	if len(sgot) != 3 || sgot[0].Func != 0 {
		t.Fatalf("single-trace expansion wrong: %+v", sgot)
	}
}

// TestCSVErrors: malformed headers fail OpenCSV; malformed or unsorted
// event rows surface through Err after Next returns false.
func TestCSVErrors(t *testing.T) {
	if _, err := OpenCSV(strings.NewReader("a,b,c,d\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	cs, err := OpenCSV(strings.NewReader("func,t_ns\n0,100\nx,200\n"))
	if err != nil {
		t.Fatalf("OpenCSV: %v", err)
	}
	drain(cs)
	if cs.Err() == nil {
		t.Fatal("malformed event row not reported")
	}
	cs, err = OpenCSV(strings.NewReader("func,t_ns\n0,200\n0,100\n"))
	if err != nil {
		t.Fatalf("OpenCSV: %v", err)
	}
	if got := drain(cs); len(got) != 1 || cs.Err() == nil {
		t.Fatalf("unsorted event rows not reported (got %d rows, err %v)", len(got), cs.Err())
	}
	if _, err := OpenCSV(strings.NewReader("func,minute,invocations\n0,1,2\n0,1,3\n")); err == nil {
		t.Fatal("duplicate count minute accepted")
	}
}

// TestCSVCountsSparseFuncIDs: the counts layout builds cursors only for
// the function ids present, so a lone huge id costs nothing, and ids
// with gaps between them merge in the same (time, func) order.
func TestCSVCountsSparseFuncIDs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cs, err := OpenCSV(strings.NewReader("func,minute,invocations\n1000000000000,0,2\n7,0,1\n"))
	if err != nil {
		t.Fatalf("OpenCSV: %v", err)
	}
	got := drain(cs)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("opening a 2-function trace allocated %d bytes", grew)
	}
	half, third := sim.Time(sim.Minute/2), sim.Time(sim.Minute/3)
	want := []TaggedInvocation{{T: third, Func: 1000000000000}, {T: half, Func: 7}, {T: 2 * third, Func: 1000000000000}}
	if !slices.Equal(got, want) {
		t.Fatalf("expanded %+v, want %+v", got, want)
	}
}

// TestCSVCountsRejectsOverflowingMinute: a minute whose invocations
// would fall past the largest sim.Time is an error, not a stream of
// negative times; the last minute that fits is accepted.
func TestCSVCountsRejectsOverflowingMinute(t *testing.T) {
	for _, m := range []int64{maxCountMinute + 1, 1 << 40} {
		in := fmt.Sprintf("minute,invocations\n%d,3\n", m)
		if _, err := OpenCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("minute %d accepted", m)
		}
	}
	cs, err := OpenCSV(strings.NewReader(fmt.Sprintf("minute,invocations\n%d,3\n", maxCountMinute)))
	if err != nil {
		t.Fatalf("last representable minute rejected: %v", err)
	}
	for _, inv := range drain(cs) {
		if inv.T < sim.Time(maxCountMinute)*sim.Time(sim.Minute) {
			t.Fatalf("invocation at %d wrapped below its minute", inv.T)
		}
	}
}

// FuzzOpenCSV feeds arbitrary bytes to OpenCSV in both layouts (the
// seed corpus under testdata/fuzz covers each). Whatever the input, it
// must not panic, and every invocation it yields before the stream
// ends or errors must be at a non-negative time and in (T, Func) order.
// Only the first invocations are drained, since a count row can expand
// into billions.
func FuzzOpenCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := OpenCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var last TaggedInvocation
		for i := 0; i < 4096; i++ {
			inv, ok := cs.Next()
			if !ok {
				break
			}
			if inv.T < 0 {
				t.Fatalf("invocation %d at negative time %d", i, inv.T)
			}
			if i > 0 && (inv.T < last.T || inv.T == last.T && inv.Func < last.Func) {
				t.Fatalf("invocation %d %+v after %+v", i, inv, last)
			}
			last = inv
		}
	})
}
