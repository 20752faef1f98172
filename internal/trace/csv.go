package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"

	"squeezy/internal/sim"
)

// CSV trace formats. Two layouts round-trip through this file, both
// shared with cmd/tracegen:
//
//   - events: header "func,t_ns", one row per invocation with its
//     absolute nanosecond timestamp, sorted by (time, func). This is
//     the exact-replay format (tracegen -events) and streams row by
//     row in O(1) memory.
//   - counts: the original tracegen -csv fleet format, header
//     "func,minute,invocations" (or "minute,invocations" for a single
//     trace). Counts compress an arbitrarily long trace into
//     funcs x minutes integers; the reader re-expands each minute's
//     count into evenly spaced invocations and merges functions on the
//     fly, so memory is bounded by the count matrix, never the
//     invocation count.

// CSVStream streams invocations parsed from a CSV trace. In events
// mode rows are decoded on demand; in counts mode the (small) count
// matrix is loaded up front and expanded lazily. Next returns false at
// the end of the stream or on a malformed row — callers distinguish
// the two via Err.
type CSVStream struct {
	cr   *csv.Reader // events mode; nil in counts mode
	src  Stream      // counts mode: merged count-expansion cursors
	last TaggedInvocation
	any  bool
	err  error
}

// OpenCSV wraps a CSV trace (events or counts layout, detected from
// the header) as an invocation stream.
func OpenCSV(r io.Reader) (*CSVStream, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	switch {
	case len(header) == 2 && header[0] == "func" && header[1] == "t_ns":
		return &CSVStream{cr: cr}, nil
	case len(header) == 3 && header[0] == "func" && header[1] == "minute" && header[2] == "invocations":
		return openCounts(cr, true)
	case len(header) == 2 && header[0] == "minute" && header[1] == "invocations":
		return openCounts(cr, false)
	default:
		return nil, fmt.Errorf("trace: unrecognized CSV header %q", header)
	}
}

// Next returns the next invocation. After a false return, Err reports
// whether the stream ended cleanly or on a malformed row.
func (c *CSVStream) Next() (TaggedInvocation, bool) {
	if c.err != nil {
		return TaggedInvocation{}, false
	}
	if c.src != nil {
		return c.src.Next()
	}
	rec, err := c.cr.Read()
	if err == io.EOF {
		return TaggedInvocation{}, false
	}
	if err != nil {
		c.err = err
		return TaggedInvocation{}, false
	}
	fn, err1 := strconv.Atoi(rec[0])
	ns, err2 := strconv.ParseInt(rec[1], 10, 64)
	if err1 != nil || err2 != nil || fn < 0 || ns < 0 {
		c.err = fmt.Errorf("trace: malformed event row %q", rec)
		return TaggedInvocation{}, false
	}
	inv := TaggedInvocation{T: sim.Time(ns), Func: fn}
	if c.any && (inv.T < c.last.T || (inv.T == c.last.T && inv.Func < c.last.Func)) {
		c.err = fmt.Errorf("trace: event rows not sorted by (t_ns, func): %v after %v", inv, c.last)
		return TaggedInvocation{}, false
	}
	c.last, c.any = inv, true
	return inv, true
}

// Err returns the first decode error, or nil if the stream is clean so
// far (or ended cleanly).
func (c *CSVStream) Err() error { return c.err }

// countRow is one per-minute count for one function.
type countRow struct {
	minute, count int
}

// countCursor expands one function's per-minute counts into evenly
// spaced invocation times: minute m with count c yields times
// m*minute + k*minute/(c+1) for k in 1..c, deterministically.
type countCursor struct {
	fn   int
	rows []countRow
	ri   int
	k    int
}

func (cc *countCursor) Next() (TaggedInvocation, bool) {
	for cc.ri < len(cc.rows) {
		r := cc.rows[cc.ri]
		if cc.k < r.count {
			step := sim.Duration(sim.Minute) / sim.Duration(r.count+1)
			t := sim.Time(r.minute)*sim.Time(sim.Minute) + sim.Time(step)*sim.Time(cc.k+1)
			cc.k++
			return TaggedInvocation{T: t, Func: cc.fn}, true
		}
		cc.ri++
		cc.k = 0
	}
	return TaggedInvocation{}, false
}

// maxCountMinute is the last minute a count row may name: every
// invocation of minute m falls before (m+1) minutes, which must fit in
// a sim.Time.
const maxCountMinute = math.MaxInt64/int64(sim.Minute) - 1

func openCounts(cr *csv.Reader, hasFunc bool) (*CSVStream, error) {
	perFunc := map[int][]countRow{}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		fn := 0
		idx := 0
		if hasFunc {
			fn, err = strconv.Atoi(rec[0])
			if err != nil || fn < 0 {
				return nil, fmt.Errorf("trace: malformed count row %q", rec)
			}
			idx = 1
		}
		minute, err1 := strconv.Atoi(rec[idx])
		count, err2 := strconv.Atoi(rec[idx+1])
		if err1 != nil || err2 != nil || minute < 0 || count < 0 {
			return nil, fmt.Errorf("trace: malformed count row %q", rec)
		}
		if int64(minute) > maxCountMinute {
			return nil, fmt.Errorf("trace: count row %q: minute past %d overflows the clock", rec, maxCountMinute)
		}
		if n := len(perFunc[fn]); n > 0 && perFunc[fn][n-1].minute >= minute {
			return nil, fmt.Errorf("trace: count rows for func %d not sorted by minute", fn)
		}
		perFunc[fn] = append(perFunc[fn], countRow{minute, count})
	}
	// One cursor per function present, in ascending id order: sparse ids
	// cost nothing, and since NewMerged breaks time ties by Func, the
	// merged order is the same as with a cursor for every id.
	srcs := make([]Stream, 0, len(perFunc))
	for _, fn := range slices.Sorted(maps.Keys(perFunc)) {
		srcs = append(srcs, &countCursor{fn: fn, rows: perFunc[fn]})
	}
	return &CSVStream{src: NewMerged(srcs)}, nil
}

// WriteCSV drains a stream into the events CSV layout
// ("func,t_ns", one row per invocation) and returns the number of
// invocations written. Combined with OpenCSV this is an exact
// round-trip: replaying the file reproduces the stream bit for bit.
func WriteCSV(w io.Writer, s Stream) (int, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"func", "t_ns"}); err != nil {
		return 0, err
	}
	n := 0
	rec := make([]string, 2)
	for {
		inv, ok := s.Next()
		if !ok {
			break
		}
		rec[0] = strconv.Itoa(inv.Func)
		rec[1] = strconv.FormatInt(int64(inv.T), 10)
		if err := cw.Write(rec); err != nil {
			return n, err
		}
		n++
	}
	cw.Flush()
	return n, cw.Error()
}
