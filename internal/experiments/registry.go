package experiments

import (
	"fmt"
	"sort"
)

// Result is what an experiment run produces. Every driver's typed
// result satisfies it by exposing the figure's rows as a Table, which
// in turn renders as aligned text, JSON, or CSV.
type Result interface {
	Table() *Table
}

// Experiment is a registered, runnable driver: one table or figure of
// the paper's evaluation, or an ablation of a design choice.
type Experiment interface {
	// Name is the short CLI-facing identifier, e.g. "fig6".
	Name() string
	// Describe is a one-line summary shown by `squeezyctl list`.
	Describe() string
	// Run executes the driver serially. It must be a pure function of
	// opts.Seed: equal seeds give byte-identical tables.
	Run(opts Options) Result
	// Plan enumerates the driver's cells for the unified executor.
	// Executing the plan (at any worker count) must produce the same
	// result as Run.
	Plan(opts Options) *Plan
}

// planExperiment adapts a plan-enumerating driver function to
// Experiment.
type planExperiment struct {
	name string
	desc string
	plan func(Options) *Plan
}

func (e planExperiment) Name() string            { return e.name }
func (e planExperiment) Describe() string        { return e.desc }
func (e planExperiment) Run(opts Options) Result { return e.plan(opts).runSerial(newWorld()) }
func (e planExperiment) Plan(opts Options) *Plan { return e.plan(opts) }

var registry = map[string]Experiment{}

// RegisterPlan adds a cell-plan experiment under its name. Drivers
// call it from init(), so importing this package is enough to populate
// the registry. Duplicate names panic: they are a build-time bug.
func RegisterPlan(name, desc string, plan func(Options) *Plan) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("experiments: duplicate registration of %q", name))
	}
	registry[name] = planExperiment{name: name, desc: desc, plan: plan}
}

// Get returns the named experiment, or false if none is registered.
func Get(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Names returns all registered names in canonical order: natural
// sort, with embedded integers compared numerically so fig2 < fig10
// (ablations sort before figures, as in `squeezyctl list`). The
// order is the serial execution order `squeezyctl all` reproduces.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lessNatural(names[i], names[j]) })
	return names
}

// All returns every registered experiment in Names() order.
func All() []Experiment {
	names := Names()
	out := make([]Experiment, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// lessNatural orders strings with embedded integers numerically, so
// fig2 < fig10 and fig-style names stay in paper order.
func lessNatural(a, b string) bool {
	for len(a) > 0 && len(b) > 0 {
		if isDigit(a[0]) && isDigit(b[0]) {
			an, ar := takeInt(a)
			bn, br := takeInt(b)
			if an != bn {
				return an < bn
			}
			a, b = ar, br
			continue
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		a, b = a[1:], b[1:]
	}
	return len(a) < len(b)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func takeInt(s string) (int, string) {
	n := 0
	i := 0
	for i < len(s) && isDigit(s[i]) {
		n = n*10 + int(s[i]-'0')
		i++
	}
	return n, s[i:]
}
