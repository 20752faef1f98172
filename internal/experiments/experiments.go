package experiments

import (
	"fmt"
	"strings"

	"squeezy/internal/obs"
)

// Options tune experiment scale; the zero value selects the paper's
// full protocol.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// Quick shrinks workloads (fewer instances, shorter traces) for
	// smoke tests and -short benchmarks. Shapes still hold; absolute
	// confidence intervals are looser.
	Quick bool
	// Obs, when non-nil, collects one simulation trace per cell
	// (squeezyctl -simtrace / -metrics). Tracing observes only: reports
	// and tables are byte-identical with it on or off.
	Obs *obs.Sink
	// FaultScenario applies a fault plan to every fleet experiment
	// cell: "" or "none" runs fault-free (byte-identical to a build
	// without the fault machinery), a name from fault.ScenarioNames()
	// plays that profile, and "fuzz" generates a random plan from
	// FaultSeed (squeezyctl -faults). cluster-resilience and
	// cluster-domains sweep their own fault plans and ignore it.
	FaultScenario string
	// FaultSeed seeds fuzzed fault plans and every host's fault
	// decision stream; 0 uses the experiment seed (squeezyctl
	// -faultseed).
	FaultSeed uint64
	// TopoRacks/TopoZones overlay a rack/zone topology on every fleet
	// experiment cell that has none (squeezyctl -topology RxZ; the
	// cluster-domains cells carry their own). TopoRacks <= 1 leaves
	// fleets flat — byte-identical to a build without the topology
	// layer. With racks set, rack-level fault scenarios and the
	// blast-radius-aware policies become meaningful, and "fuzz" plans
	// draw rack-level kinds too.
	TopoRacks int
	TopoZones int
	// Sketch moves every fleet experiment's latency samples into
	// bounded-memory reservoir mode (squeezyctl -sketch). Off — the
	// default — keeps exact percentiles; recorded tables are
	// byte-identical only with sketches off, since sketched order
	// statistics may differ within stats.RankErrorBound.
	Sketch bool
	// Days overrides the simulated length of the multi-day experiments
	// (squeezyctl -days): cluster-diurnal replays Days simulated days of
	// diurnally modulated traffic. 0 keeps the experiment's default.
	Days float64
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Table is a generic experiment output: a header and rows of cells,
// renderable as an aligned text table (the paper's rows/series), as
// JSON, or as CSV (see encode.go).
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Table lets a bare *Table satisfy Result, so drivers whose natural
// output is already tabular need no wrapper type.
func (t *Table) Table() *Table { return t }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("# " + t.Title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
