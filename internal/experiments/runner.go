package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	"squeezy/internal/obs"
)

// The runner executes a batch of experiments — optionally several
// trials of each under derived seeds — as one unified pool of cells:
// every experiment's plan is enumerated up front and the cells of all
// experiments × trials × stages are scheduled together, so a single
// slow sweep no longer serializes a whole worker while others idle.
// Results come back in a deterministic (experiment, trial) order with
// rows assembled in cell-enumeration order, so the encoded output does
// not depend on the worker count: a -parallel 8 run is byte-identical
// to a serial one.

// SubSeed derives a well-separated random stream for the given
// coordinates under a base seed, mixing each dimension through
// splitmix64. It is the single sub-seed derivation used for both
// trials (TrialSeed) and cells, so adjacent coordinates — trial 3 and
// trial 4, cell 7 and cell 8 — never produce correlated streams the
// way naive base+index arithmetic can. The result is never 0, which
// Options would remap to the default seed.
func SubSeed(base uint64, dims ...int) uint64 {
	x := base
	for _, d := range dims {
		x += uint64(d) * 0x9E3779B97F4A7C15
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
	}
	if x == 0 {
		x = 0x9E3779B97F4A7C15
	}
	return x
}

// TrialSeed derives the seed for trial t of a run with the given base
// seed. Trial 0 uses the base seed unchanged, so a single-trial run
// reproduces a plain `run -seed N` exactly; later trials draw from
// SubSeed, giving well-separated streams even for adjacent base seeds.
func TrialSeed(base uint64, trial int) uint64 {
	if trial == 0 {
		return base
	}
	return SubSeed(base, trial)
}

// Report is one completed experiment×trial unit. It carries only
// run-deterministic fields — no wall-clock timing — so that encoded
// reports are byte-identical across serial and parallel runs.
type Report struct {
	Experiment  string `json:"experiment"`
	Description string `json:"description"`
	Trial       int    `json:"trial"`
	Seed        uint64 `json:"seed"`
	Quick       bool   `json:"quick"`
	Table       *Table `json:"table"`
}

// CellStat is the measured wall-clock time of one executed cell, for
// `squeezyctl -cellstats`. Wall times are scheduling-dependent and
// never part of a Report.
type CellStat struct {
	Experiment string
	Trial      int
	Label      string
	Wall       time.Duration
	// Start is the offset from the batch's start to the cell's run
	// start; Wait is how long the cell sat queued before that; Worker is
	// the pool worker that ran it. Together they place the cell on the
	// runner's wall-clock timeline (obs.RunnerSpan).
	Start  time.Duration
	Wait   time.Duration
	Worker int
	// ShardWalls is the per-shard wall-clock breakdown of a cell that
	// decomposed into sub-cell shards (a sharded fleet run's final
	// drain): entry i is the time drain shard i consumed, wherever it
	// ran. Epoch advances run inline and are not included.
	ShardWalls []time.Duration
}

// CellFloor is a cell's critical path: the shortest wall it could take
// with idle workers to spare. A plain cell contributes its whole wall.
// A sharded fleet cell's epochs run inline on its own worker and only
// its final drain fans out, so the bound is the serial remainder (wall
// minus all drain-shard work) plus the slowest drain shard.
func CellFloor(s CellStat) time.Duration {
	if len(s.ShardWalls) == 0 {
		return s.Wall
	}
	var slowest, sum time.Duration
	for _, sw := range s.ShardWalls {
		sum += sw
		if sw > slowest {
			slowest = sw
		}
	}
	floor := s.Wall - sum + slowest
	if floor < slowest {
		floor = slowest
	}
	return floor
}

// ParallelFloor is the batch's modeled wall-clock floor on workers that
// each own a core: no run finishes before its worst cell's critical
// path (CellFloor), nor before the summed cell wall spread evenly over
// the workers. The worker count is the number of distinct
// CellStat.Worker values.
func ParallelFloor(stats []CellStat) time.Duration {
	var worst, summed time.Duration
	workers := map[int]bool{}
	for _, s := range stats {
		worst = max(worst, CellFloor(s))
		summed += s.Wall
		workers[s.Worker] = true
	}
	if len(workers) == 0 {
		return 0
	}
	return max(worst, summed/time.Duration(len(workers)))
}

// Run executes each named experiment for the given number of trials on
// a pool of `workers` goroutines (workers<=0 selects GOMAXPROCS).
// Trial t runs with TrialSeed(opts.seed(), t). The returned reports
// are ordered by (position in names, trial) regardless of scheduling,
// and an unknown name fails up front before anything runs.
func Run(names []string, opts Options, trials, workers int) ([]Report, error) {
	reports, _, err := RunWithCellStats(names, opts, trials, workers)
	return reports, err
}

// planRun tracks one report's progress through its plan's stages.
type planRun struct {
	report *Report
	plan   *Plan
	stage  *Stage
	left   int // cells of the current stage still running or queued
}

// cellUnit is one schedulable cell of one report.
type cellUnit struct {
	pr   *planRun
	cell Cell
	enq  time.Time // when the cell was published, for queue-wait stats
}

// subGroup tracks one World.Exec batch of sub-cell tasks; left is
// guarded by the executor mutex.
type subGroup struct {
	left int
}

// subUnit is one schedulable sub-cell task (a drain shard of a
// sharded fleet cell). Sub-tasks never need a World: they operate on
// state owned by the cell that published them.
type subUnit struct {
	run func()
	g   *subGroup
}

// RunWithCellStats is Run plus the per-cell wall-clock timings of the
// executed cells, in completion order.
func RunWithCellStats(names []string, opts Options, trials, workers int) ([]Report, []CellStat, error) {
	if trials <= 0 {
		trials = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	exps := make([]Experiment, len(names))
	for i, n := range names {
		e, ok := Get(n)
		if !ok {
			return nil, nil, fmt.Errorf("unknown experiment %q (see `squeezyctl list`)", n)
		}
		exps[i] = e
	}

	base := opts.seed()
	reports := make([]Report, len(exps)*trials)
	runs := make([]*planRun, len(reports))
	for i, e := range exps {
		for t := 0; t < trials; t++ {
			r := &reports[i*trials+t]
			*r = Report{
				Experiment:  e.Name(),
				Description: e.Describe(),
				Trial:       t,
				Seed:        TrialSeed(base, t),
				Quick:       opts.Quick,
			}
			o := opts
			o.Seed = r.Seed
			plan := e.Plan(o)
			runs[i*trials+t] = &planRun{report: r, plan: plan, stage: &plan.Stage}
		}
	}

	x := &executor{pending: len(runs), obsSink: opts.Obs, start: time.Now()}
	x.cond = sync.NewCond(&x.mu)
	for _, pr := range runs {
		x.advance(pr)
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			w := newWorld()
			w.par = x.par
			x.work(w, wk)
		}(wk)
	}
	wg.Wait()
	return reports, x.stats, nil
}

// executor is the shared scheduling state of one RunWithCellStats
// call: a FIFO of runnable cells, a LIFO of sub-cell tasks published
// by running cells (sharded fleet drains), and per-report stage
// bookkeeping. All fields are guarded by mu; simulations run outside
// the lock.
//
// Sub-tasks always outrank cells: a worker with both available picks
// the sub-task, because a published sub-task is on some running cell's
// critical path while a queued cell is not on anyone's yet.
type executor struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []cellUnit
	subq    []subUnit
	pending int // reports not yet assembled
	stats   []CellStat

	obsSink *obs.Sink // per-cell trace collection; nil when tracing is off
	start   time.Time // batch start, the zero of CellStat.Start
}

// par is World.Exec's pooled implementation: publish the batch on the
// sub-task queue, then help until the whole batch has completed. The
// helping loop makes the scheme deadlock-free at any worker count —
// the publishing worker can always run its own tasks — and lets idle
// workers (and workers blocked in their own par) steal drain shards.
// A fleet cell publishes one batch, its final drain; its epochs are
// too small to be worth a hand-off and run inline. Tasks may be
// executed in any order by any worker; callers guarantee
// order-independence.
func (x *executor) par(tasks []func()) {
	if len(tasks) <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	g := &subGroup{left: len(tasks)}
	x.mu.Lock()
	for _, t := range tasks {
		x.subq = append(x.subq, subUnit{run: t, g: g})
	}
	x.cond.Broadcast()
	for g.left > 0 {
		if n := len(x.subq); n > 0 {
			u := x.subq[n-1] // LIFO: newest batch first, likely our own
			x.subq[n-1] = subUnit{}
			x.subq = x.subq[:n-1]
			x.mu.Unlock()
			u.run()
			x.mu.Lock()
			x.finishSub(u)
			continue
		}
		// Our remaining tasks are running on other workers; wait for
		// their completion broadcasts.
		x.cond.Wait()
	}
	x.mu.Unlock()
}

// finishSub retires one executed sub-task under the lock, waking its
// publisher when the batch drains.
func (x *executor) finishSub(u subUnit) {
	u.g.left--
	if u.g.left == 0 {
		x.cond.Broadcast()
	}
}

// advance schedules pr's current stage, walking the Then chain past
// empty stages; when the chain ends the report is assembled. The
// caller must own pr exclusively — at batch start, or as the worker
// that drained the stage's last cell. Then and Assemble run outside
// the executor lock, so a slow continuation never stalls the pool;
// the lock is taken only to publish the stage's cells.
func (x *executor) advance(pr *planRun) {
	for {
		if len(pr.stage.Cells) > 0 {
			now := time.Now()
			x.mu.Lock()
			pr.left = len(pr.stage.Cells)
			for _, c := range pr.stage.Cells {
				x.queue = append(x.queue, cellUnit{pr: pr, cell: c, enq: now})
			}
			x.cond.Broadcast()
			x.mu.Unlock()
			return
		}
		if pr.stage.Then == nil {
			break
		}
		next := pr.stage.Then()
		if next == nil {
			break
		}
		pr.stage = next
	}
	pr.report.Table = pr.plan.Assemble().Table()
	x.mu.Lock()
	x.pending--
	if x.pending == 0 {
		x.cond.Broadcast()
	}
	x.mu.Unlock()
}

// work is one worker's loop: run a published sub-task when one is
// available (it is on a running cell's critical path), else pop a
// cell, simulate it on the pooled world, and on the stage's last cell
// advance the report to its next stage (or assemble it).
func (x *executor) work(w *World, wk int) {
	for {
		x.mu.Lock()
		for len(x.subq) == 0 && len(x.queue) == 0 && x.pending > 0 {
			x.cond.Wait()
		}
		if n := len(x.subq); n > 0 {
			u := x.subq[n-1]
			x.subq[n-1] = subUnit{}
			x.subq = x.subq[:n-1]
			x.mu.Unlock()
			u.run()
			x.mu.Lock()
			x.finishSub(u)
			x.mu.Unlock()
			continue
		}
		if len(x.queue) == 0 {
			x.mu.Unlock()
			return
		}
		u := x.queue[0]
		x.queue = x.queue[1:]
		x.mu.Unlock()

		w.begin()
		w.beginObs(x.obsSink, u.pr.report.Experiment, u.pr.report.Trial, u.cell.Label)
		start := time.Now()
		u.cell.Run(w)
		wall := time.Since(start)
		shardWalls := w.shardWalls
		w.shardWalls = nil
		w.endCell()

		x.mu.Lock()
		x.stats = append(x.stats, CellStat{
			Experiment: u.pr.report.Experiment,
			Trial:      u.pr.report.Trial,
			Label:      u.cell.Label,
			Wall:       wall,
			Start:      start.Sub(x.start),
			Wait:       start.Sub(u.enq),
			Worker:     wk,
			ShardWalls: shardWalls,
		})
		u.pr.left--
		last := u.pr.left == 0
		x.mu.Unlock()
		if !last {
			continue
		}
		// Stage drained; this worker now owns pr. Follow the Then
		// continuation (which may read the finished cells' results)
		// outside the lock, or end the chain.
		var next *Stage
		if then := u.pr.stage.Then; then != nil {
			next = then()
		}
		if next == nil {
			next = &Stage{}
		}
		u.pr.stage = next
		x.advance(u.pr)
	}
}

// EncodeText writes each report's aligned-text table, separated by
// blank lines. Multi-trial runs get a per-trial banner so tables with
// identical titles stay distinguishable.
func EncodeText(w io.Writer, reports []Report, trials int) error {
	for i, r := range reports {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if trials > 1 {
			banner := fmt.Sprintf("== %s trial %d (seed %d) ==\n", r.Experiment, r.Trial, r.Seed)
			if _, err := io.WriteString(w, banner); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, r.Table.String()); err != nil {
			return err
		}
	}
	return nil
}

// EncodeJSON writes the reports as one indented JSON array.
func EncodeJSON(w io.Writer, reports []Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}

// cellStatJSON is the machine-readable form of one CellStat
// (`squeezyctl -cellstats=json`). Durations are milliseconds.
type cellStatJSON struct {
	Experiment  string    `json:"experiment"`
	Trial       int       `json:"trial"`
	Cell        string    `json:"cell"`
	WallMs      float64   `json:"wall_ms"`
	StartMs     float64   `json:"start_ms"`
	WaitMs      float64   `json:"wait_ms"`
	Worker      int       `json:"worker"`
	ShardWallMs []float64 `json:"shard_walls_ms,omitempty"`
	FloorMs     float64   `json:"floor_ms"`
}

// cellStatsDoc is the `-cellstats=json` document: the per-cell walls
// plus the batch-level floor rule, so bench scripts read the numbers
// the text mode prints to stderr without scraping it.
type cellStatsDoc struct {
	Cells []cellStatJSON `json:"cells"`
	// SummedWallMs is total cell wall time (== CPU time only when
	// workers <= cores).
	SummedWallMs float64 `json:"summed_wall_ms"`
	// SlowestCellMs is the wall of the slowest single cell.
	SlowestCellMs float64 `json:"slowest_cell_ms"`
	// ParallelFloorMs is ParallelFloor: the worst cell's critical path
	// or the summed wall spread over the workers, whichever is larger —
	// the wall-clock floor when workers <= cores.
	ParallelFloorMs float64 `json:"parallel_floor_ms"`
}

// EncodeCellStatsJSON writes the cell timings and the floor rule as
// indented JSON, cells in execution-completion order.
func EncodeCellStatsJSON(w io.Writer, stats []CellStat) error {
	msf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	doc := cellStatsDoc{Cells: make([]cellStatJSON, 0, len(stats))}
	var summed, slowest time.Duration
	for _, s := range stats {
		f := CellFloor(s)
		summed += s.Wall
		if s.Wall > slowest {
			slowest = s.Wall
		}
		c := cellStatJSON{
			Experiment: s.Experiment, Trial: s.Trial, Cell: s.Label,
			WallMs: msf(s.Wall), StartMs: msf(s.Start), WaitMs: msf(s.Wait),
			Worker: s.Worker, FloorMs: msf(f),
		}
		for _, sw := range s.ShardWalls {
			c.ShardWallMs = append(c.ShardWallMs, msf(sw))
		}
		doc.Cells = append(doc.Cells, c)
	}
	doc.SummedWallMs = msf(summed)
	doc.SlowestCellMs = msf(slowest)
	doc.ParallelFloorMs = msf(ParallelFloor(stats))
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// RunnerSpans converts the cell timings into the exporter's wall-clock
// runner spans, so `-simtrace` files carry the executor's own timeline
// (queue wait vs run, per worker) next to the simulated-time tracks.
func RunnerSpans(stats []CellStat) []obs.RunnerSpan {
	spans := make([]obs.RunnerSpan, 0, len(stats))
	for _, s := range stats {
		name := fmt.Sprintf("%s/%d", s.Experiment, s.Trial)
		if s.Label != "" {
			name += "/" + s.Label
		}
		spans = append(spans, obs.RunnerSpan{
			Worker: s.Worker, Name: name,
			Start: s.Start, Wait: s.Wait, Dur: s.Wall,
			ShardWalls: s.ShardWalls,
		})
	}
	return spans
}

// EncodeCSV writes all reports as one CSV stream. Each table
// contributes its header record then its rows, every record prefixed
// with (experiment, trial, seed) columns so concatenated tables of
// different shapes remain self-describing. One record buffer is reused
// across all rows: encoding allocates per report, not per row.
func EncodeCSV(w io.Writer, reports []Report) error {
	cw := csv.NewWriter(w)
	var rec []string
	for _, r := range reports {
		prefix := [...]string{r.Experiment, strconv.Itoa(r.Trial), strconv.FormatUint(r.Seed, 10)}
		write := func(cells []string) error {
			rec = append(rec[:0], prefix[:]...)
			rec = append(rec, cells...)
			return cw.Write(rec)
		}
		if err := write(r.Table.Header); err != nil {
			return err
		}
		for _, row := range r.Table.Rows {
			if err := write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
