// Package obs is the simulator's zero-cost-when-disabled observability
// layer: typed spans, instant events, gauges, and a counter registry,
// all keyed on simulated time.
//
// The design mirrors the determinism contract of the epoch engine
// (internal/cluster): recording only ever observes — a Recorder reads
// a clock and appends to recorder-local storage; it never schedules
// events, never draws randomness, and never feeds back into any
// decision. A Trace holds one recorder per host (host-private, written
// only while that host advances, exactly like cluster.NodeMetrics)
// plus one fleet-level recorder written only by the serial dispatcher
// at boundaries. Export concatenates the fleet track and then the host
// tracks in host-ID order, so the trace is byte-identical whatever
// order hosts advance in and at every worker count — the same merge
// discipline as stats.Sample.
//
// Every recording method is safe on a nil receiver, and a nil Trace
// hands out nil Recorders, so instrumentation call sites stay
// unconditional at the API level; hot paths additionally guard with a
// nil check to skip variadic-argument construction entirely, which is
// what keeps the disabled path free.
//
// perfetto.go renders traces in the Chrome trace-event JSON format
// (load at https://ui.perfetto.dev): one process per cell, one track
// per host plus a fleet/dispatcher track, and an optional wall-clock
// process carrying the experiment runner's own cell spans.
package obs
