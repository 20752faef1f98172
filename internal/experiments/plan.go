package experiments

// A cell plan is the declarative form of an experiment driver: instead
// of one monolithic Run loop that simulates every configuration
// serially, the driver enumerates Cells — independent simulation units
// — and an Assemble step that builds the figure's table after all of
// them have run. The unified executor (runner.go) schedules the cells
// of every experiment and trial on one worker pool; because each cell
// writes only its own pre-allocated result slot and Assemble reads the
// slots in enumeration order, the encoded output is byte-identical to
// a serial run at any worker count.
//
// Cell seeds: a cell captures its sub-seed in its closure. Every
// driver derives per-stream randomness with SubSeed(opts.seed(), i) —
// the single guarded splitmix64 derivation — so adjacent streams are
// well separated; the pre-PR-5 ad-hoc seed arithmetic (seed+i*31
// style) is gone, and EXPERIMENTS.md's tables are baselined on the
// SubSeed streams.
//
// Sub-cell shards: a cell is the executor's scheduling unit, but a
// cell may decompose further at run time by fanning independent tasks
// through World.Exec — a sharded fleet cell drains each host shard to
// the horizon as one such task after its last epoch (the epochs
// themselves run inline), with the executor's idle workers picking
// them up. Shard tasks never touch the World's own pools, only state
// the cell handed them, and must be order-independent so serial and
// pooled execution agree byte-for-byte.

// Cell is one independently runnable simulation unit: a label for
// per-cell timing (-cellstats), and a closure that runs the simulation
// against a pooled world and stashes its result for Assemble.
type Cell struct {
	Label string
	Run   func(w *World)
}

// Stage is one set of cells with no dependencies among them, plus an
// optional continuation producing the next, data-dependent stage.
// Then runs after every cell of the stage has completed; it may read
// their results (fig10 derives its host-memory cap from its abundant
// stage) and returns nil to end the chain.
type Stage struct {
	Cells []Cell
	Then  func() *Stage
}

// Cell appends a cell to the stage.
func (s *Stage) Cell(label string, run func(w *World)) {
	s.Cells = append(s.Cells, Cell{Label: label, Run: run})
}

// Plan is a full experiment: a chain of stages and the Assemble step
// that builds the result once every stage has drained.
type Plan struct {
	Stage
	Assemble func() Result
}

// runSerial executes the plan's stages in enumeration order on one
// world and returns the assembled result. It is the serial reference
// implementation the parallel executor must be byte-equivalent to,
// and what Experiment.Run uses.
func (p *Plan) runSerial(w *World) Result {
	for st := &p.Stage; st != nil; {
		for _, c := range st.Cells {
			w.begin()
			c.Run(w)
			w.endCell()
		}
		if st.Then == nil {
			break
		}
		st = st.Then()
	}
	return p.Assemble()
}
