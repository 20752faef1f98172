package trace

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV drains a stream into the events CSV layout
// ("func,t_ns", one row per invocation) and returns the number of
// invocations written. Rows are sorted by (time, func), as the stream
// is, and carry the exact nanosecond timestamps, so the file records
// the stream bit for bit (tracegen -events).
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
