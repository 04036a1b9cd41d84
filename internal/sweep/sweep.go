// Package sweep runs program × manager × parameter matrices of
// simulations in parallel and aggregates the outcomes. It powers the
// parameter-sweep modes of the CLI tools and keeps the figure
// regeneration fast on multi-core machines: every cell is an
// independent deterministic simulation, so the sweep is embarrassingly
// parallel.
//
// Paper-scale grids run for minutes to hours, so the sweep is also
// fault-tolerant: cells are isolated (a panicking or erroring cell
// becomes a typed hole, never a torn-down sweep), attempts are bounded
// by per-cell deadlines and retried with exponential backoff + seeded
// jitter, completed cells are durably journaled through
// internal/resume so a killed sweep resumes exactly where it stopped,
// and cancellation is cooperative end-to-end: RunOpts takes a context,
// and a canceled sweep returns a partial grid with explicit holes
// rather than nothing. See Options.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compaction/internal/mm"
	"compaction/internal/obs"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/stats"
)

// Cell is one simulation to run.
type Cell struct {
	// Label names the cell in reports (e.g. the program name). It is
	// part of the resume fingerprint, so anything that changes the
	// program's behavior without changing the Config — a seed, a round
	// count — must be folded into the label (or the journal params) for
	// checkpoint/resume to be sound.
	Label string
	// Config is the model configuration.
	Config sim.Config
	// Manager is the registered manager name.
	Manager string
	// Program constructs a fresh program for the run (programs are
	// single-use; retries construct a new one per attempt).
	Program func() sim.Program
}

// key returns the cell's resume fingerprint key.
func (c Cell) key(index int) resume.CellKey {
	return resume.CellKey{Index: index, Label: c.Label, Manager: c.Manager, Config: c.Config}
}

// Outcome is the result of one cell.
type Outcome struct {
	Cell   Cell
	Result sim.Result
	// Err is nil for completed cells. Failed, skipped and timed-out
	// cells carry a *CellError describing the hole.
	Err error
	// Restored marks an outcome satisfied from a checkpoint journal
	// rather than a fresh run.
	Restored bool
}

// FailKind classifies why a cell failed.
type FailKind int

// The failure classes a cell can end in.
const (
	// FailError: the run returned an error (model violation, bad
	// manager name, injected fault).
	FailError FailKind = iota
	// FailPanic: the program or manager panicked; the panic was
	// contained to the cell.
	FailPanic
	// FailDeadline: the cell exceeded Options.CellTimeout.
	FailDeadline
	// FailCanceled: the sweep's context was canceled while the cell
	// was running.
	FailCanceled
	// FailSkipped: the sweep's context was canceled before the cell
	// started; it was never attempted.
	FailSkipped
	// FailQuarantined: a distributed sweep's coordinator declared the
	// cell poisonous after it failed on MaxFailures distinct attempts
	// across workers; it will not be leased again.
	FailQuarantined
)

// String names the kind.
func (k FailKind) String() string {
	switch k {
	case FailError:
		return "error"
	case FailPanic:
		return "panic"
	case FailDeadline:
		return "deadline"
	case FailCanceled:
		return "canceled"
	case FailSkipped:
		return "skipped"
	case FailQuarantined:
		return "quarantined"
	}
	return "unknown"
}

// CellError is the typed error a failed cell's Outcome carries: which
// cell, how it failed, how many attempts were spent, and the
// underlying cause (available to errors.Is/As through Unwrap).
type CellError struct {
	Label, Manager string
	Index          int
	Attempts       int
	Kind           FailKind
	Err            error
}

// Error implements error.
func (e *CellError) Error() string {
	return fmt.Sprintf("sweep: cell %d (%q vs %q) %s after %d attempt(s): %v",
		e.Index, e.Label, e.Manager, e.Kind, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *CellError) Unwrap() error { return e.Err }

// panicCause wraps a recovered panic value as an error so it can ride
// in a CellError chain.
type panicCause struct{ val any }

func (p *panicCause) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// Options configures a fault-tolerant sweep. The zero value reproduces
// the plain parallel sweep: no deadlines, no retries, no journal.
type Options struct {
	// Parallelism is the worker count; <= 0 selects runtime.NumCPU.
	Parallelism int
	// Monitor, if non-nil, observes progress: each worker reports every
	// finished cell, so CLIs poll it for a stderr ticker and its gauges
	// are served live over -metrics-addr.
	Monitor *Monitor
	// CellTimeout bounds each attempt's wall clock. Enforcement is
	// cooperative (the engine polls at round boundaries), so a single
	// enormous round can overshoot. 0 disables deadlines.
	CellTimeout time.Duration
	// Retries is how many times a failed attempt is re-run before the
	// cell becomes a hole. Every failure except sweep cancellation is
	// considered possibly transient and retried: a deterministic model
	// violation wastes its retries quickly, while an injected or
	// environmental fault gets its chance to clear.
	Retries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries (base, 2·base, 4·base, … capped at max), each delay
	// stretched by up to 50% deterministic jitter. Defaults: 10ms, 1s.
	BackoffBase, BackoffMax time.Duration
	// Seed drives the backoff jitter (and nothing else); sweeps with
	// equal seeds back off identically. 0 is a valid seed.
	Seed int64
	// Journal, if non-nil, is the durable checkpoint: each completed
	// cell appends one fsynced commit record, and a resumed sweep
	// restores the recorded cells without re-running them. The journal
	// must be freshly opened or belong to this exact grid; RunOpts
	// refuses a mismatch. Failed cells are never journaled — they
	// re-run on resume.
	Journal *resume.Journal
	// Params is an opaque program-identity string bound into the
	// journal header (e.g. "adv=pf seed=1 rounds=100"); resuming with
	// different params is refused. Ignored without Journal.
	Params string
	// Tracer, if non-nil, receives retry, checkpoint and degraded
	// events. The sweep serializes emissions, so any tracer works.
	Tracer obs.Tracer
	// EngineTracer, if non-nil, is consulted once per attempt for the
	// tracer to attach to the cell's engine (nil leaves that cell
	// untraced). Unlike Tracer, emissions are NOT serialized by the
	// sweep: cells run on concurrent workers, so a tracer shared
	// across cells must be safe for concurrent use — compactd's
	// job-stream broadcaster is; the plain file sinks are not. The
	// engine emits round (and, with managers that trace, alloc, free
	// and move) events; the cell index is passed so the caller can
	// stamp events with their grid position.
	EngineTracer func(cell int) obs.Tracer
	// HeapProbe, if non-nil, is consulted once per attempt for the
	// sim.HeapHook to install on the cell's engine (nil leaves that
	// cell unprobed). The hook sees the engine's occupancy at sampled
	// round boundaries — compactd hands out one heapscope.Sampler per
	// cell this way. Like EngineTracer, the hook runs on the worker's
	// goroutine, concurrently with other cells' hooks.
	HeapProbe func(cell int) sim.HeapHook
	// HeapEvery is the round sampling stride for HeapProbe hooks
	// (engine RoundHookEvery): k > 1 fires the hook every k-th round
	// and on the final round; <= 1 fires it every round.
	HeapEvery int
	// OnCell, if non-nil, observes every cell the moment its outcome is
	// final: successful cells BEFORE their journal checkpoint (so
	// durable per-cell artifacts — compactd's heatmap files — exist
	// by the time the journal claims the cell is done), failed cells
	// after their last attempt, restored and skipped cells when the
	// sweep classifies them. Calls are serialized across workers, in
	// completion order, not cell order.
	OnCell func(cell int, o Outcome)
	// ProfileLabels, if non-nil, attaches pprof labels to every
	// attempt: the given base pairs (compactd sets job and tenant)
	// plus cell="<index>", so CPU and heap profiles of a long sweep
	// attribute samples to grid positions. An empty map enables just
	// the cell label.
	ProfileLabels map[string]string
}

func (o Options) withDefaults(cells int) Options {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.Parallelism > cells {
		o.Parallelism = cells
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	return o
}

// RunOpts executes all cells and returns outcomes in cell order.
// Workers claim cells from a shared atomic counter and reuse one
// simulation engine each across their cells (the engine's
// page-retaining Reset makes back-to-back large runs allocation-free);
// managers and programs are still constructed fresh per cell, since
// both are single-use. A canceled context stops the sweep
// cooperatively; unstarted cells become FailSkipped holes. Options add
// per-cell deadlines, bounded retry with backoff, durable
// checkpoint/resume, and fault-tolerance observability; the zero value
// runs the plain parallel sweep. The returned error reports sweep
// infrastructure problems — a journal that belongs to a different
// grid, or a checkpoint write failure (the sweep still completes; it
// just stops journaling) — never individual cell failures, which live
// in the outcomes as typed holes. Cell order is always preserved and
// the slice always has len(cells) entries.
func RunOpts(ctx context.Context, cells []Cell, o Options) ([]Outcome, error) {
	o = o.withDefaults(len(cells))
	s := &scheduler{cells: cells, o: o, mon: o.Monitor, tracer: o.Tracer}
	out := make([]Outcome, len(cells))
	restored := make([]bool, len(cells))
	if o.Journal != nil {
		s.fps = make([]string, len(cells))
		for i, c := range cells {
			s.fps[i] = resume.Fingerprint(c.key(i))
		}
		if err := o.Journal.Bind(resume.GridFingerprint(s.fps), len(cells), o.Params); err != nil {
			return out, err
		}
		s.journal = o.Journal
		for i := range cells {
			if res, ok := o.Journal.Lookup(s.fps[i]); ok {
				out[i] = Outcome{Cell: cells[i], Result: res, Restored: true}
				restored[i] = true
				s.notify(i, out[i])
			}
		}
	}
	s.mon.begin(len(cells), o.Parallelism)
	for _, r := range restored {
		if r {
			s.mon.cellRestored()
		}
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < o.Parallelism; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var e *sim.Engine
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				if restored[i] {
					continue
				}
				if ctx.Err() != nil {
					out[i] = Outcome{Cell: cells[i], Err: &CellError{
						Label: cells[i].Label, Manager: cells[i].Manager, Index: i,
						Kind: FailSkipped, Err: context.Cause(ctx),
					}}
					s.notify(i, out[i])
					s.mon.cellSkipped()
					continue
				}
				out[i], e = s.runCell(ctx, i, e)
				s.mon.cellDone(worker, out[i].Err != nil)
			}
		}(w)
	}
	wg.Wait()
	return out, s.err()
}

// scheduler carries the shared state of one RunOpts call.
type scheduler struct {
	cells   []Cell
	o       Options
	mon     *Monitor
	fps     []string
	journal *resume.Journal

	mu         sync.Mutex
	tracer     obs.Tracer
	journalErr error // set by the first failed checkpoint; stops journaling

	// cbMu serializes OnCell callbacks, separately from mu so a slow
	// callback (compactd writing a heatmap file) never blocks tracer
	// emissions or checkpoint bookkeeping.
	cbMu sync.Mutex
}

// notify delivers a final outcome to the OnCell observer, serialized
// across workers.
func (s *scheduler) notify(i int, o Outcome) {
	if s.o.OnCell == nil {
		return
	}
	s.cbMu.Lock()
	defer s.cbMu.Unlock()
	s.o.OnCell(i, o)
}

// emit serializes tracer emissions across workers.
func (s *scheduler) emit(ev obs.Event) {
	if s.tracer == nil {
		return
	}
	s.mu.Lock()
	s.tracer.Emit(ev)
	s.mu.Unlock()
}

// err returns the first sweep-infrastructure error.
func (s *scheduler) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalErr
}

// checkpoint journals a completed cell. A write failure disables
// further journaling (degraded but still running) and is surfaced by
// RunOpts once the sweep finishes.
func (s *scheduler) checkpoint(i int, res sim.Result) {
	if s.journal == nil {
		return
	}
	s.mu.Lock()
	off := s.journalErr != nil
	s.mu.Unlock()
	if off {
		return
	}
	n, err := s.journal.Record(i, s.fps[i], res)
	if err != nil {
		s.mu.Lock()
		if s.journalErr == nil {
			s.journalErr = fmt.Errorf("sweep: checkpointing disabled: %w", err)
		}
		s.mu.Unlock()
		return
	}
	s.mon.checkpointed()
	s.emit(obs.Event{Kind: obs.EvCheckpoint, Round: -1, Cell: i, Count: int64(n)})
}

// runCell runs one cell to its final outcome: attempts with optional
// deadlines, bounded retries with backoff, typed classification, and
// a checkpoint on success.
func (s *scheduler) runCell(ctx context.Context, i int, e *sim.Engine) (Outcome, *sim.Engine) {
	c := s.cells[i]
	attempts := 0
	for {
		attempts++
		actx, cancel := ctx, context.CancelFunc(func() {})
		if s.o.CellTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, s.o.CellTimeout)
		}
		var tracer obs.Tracer
		if s.o.EngineTracer != nil {
			tracer = s.o.EngineTracer(i)
		}
		var hook sim.HeapHook
		if s.o.HeapProbe != nil {
			hook = s.o.HeapProbe(i)
		}
		var o Outcome
		var next *sim.Engine
		attempt := func(ctx context.Context) {
			o, next = runCellAttempt(ctx, c, e, tracer, hook, s.o.HeapEvery)
		}
		if s.o.ProfileLabels != nil {
			pprof.Do(actx, cellLabels(s.o.ProfileLabels, i), attempt)
		} else {
			attempt(actx)
		}
		cancel()
		e = next
		if o.Err == nil {
			// Observer before checkpoint: per-cell artifacts written in
			// OnCell are durable by the time the journal claims the cell.
			s.notify(i, o)
			s.checkpoint(i, o.Result)
			return o, e
		}
		kind := classify(ctx, o.Err)
		if kind != FailCanceled && attempts <= s.o.Retries {
			s.mon.retried()
			s.emit(obs.Event{Kind: obs.EvRetry, Round: -1, Cell: i, Attempt: attempts})
			if !s.backoff(ctx, i, attempts) {
				// Canceled while backing off: finalize as canceled.
				kind = FailCanceled
			} else {
				continue
			}
		}
		o.Err = &CellError{
			Label: c.Label, Manager: c.Manager, Index: i,
			Attempts: attempts, Kind: kind, Err: o.Err,
		}
		if kind != FailCanceled {
			s.emit(obs.Event{Kind: obs.EvDegraded, Round: -1, Cell: i, Attempt: attempts})
		}
		s.notify(i, o)
		return o, e
	}
}

// backoffDelay computes the exponential-backoff delay for the given
// attempt, with deterministic jitter derived from (seed, cell,
// attempt): sweeps with equal seeds back off identically.
func (s *scheduler) backoffDelay(cell, attempt int) time.Duration {
	d := s.o.BackoffBase << (attempt - 1)
	if d <= 0 || d > s.o.BackoffMax {
		d = s.o.BackoffMax
	}
	// SplitMix64 over (seed, cell, attempt): stateless jitter in
	// [0, d/2] that is identical across runs with equal seeds.
	z := uint64(s.o.Seed)*0x9e3779b97f4a7c15 + uint64(cell)<<16 + uint64(attempt)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return d + time.Duration(z%uint64(d/2+1))
}

// backoff sleeps the backoffDelay for the given attempt. It returns
// false when the context was canceled during the wait.
func (s *scheduler) backoff(ctx context.Context, cell, attempt int) bool {
	t := time.NewTimer(s.backoffDelay(cell, attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// classify maps an attempt error to its failure class. The parent
// context decides between a per-attempt deadline (retryable) and a
// sweep-wide cancellation (terminal).
func classify(parent context.Context, err error) FailKind {
	var pc *panicCause
	switch {
	case errors.As(err, &pc):
		return FailPanic
	case parent.Err() != nil:
		return FailCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return FailDeadline
	case errors.Is(err, sim.ErrCanceled), errors.Is(err, context.Canceled):
		// Canceled but not by the parent and not by a deadline: treat
		// as an ordinary (retryable) error from the attempt.
		return FailError
	default:
		return FailError
	}
}

// cellLabels builds the pprof label set for one attempt: the base
// pairs plus the grid position.
func cellLabels(base map[string]string, cell int) pprof.LabelSet {
	kv := make([]string, 0, 2*len(base)+2)
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		kv = append(kv, k, base[k])
	}
	kv = append(kv, "cell", strconv.Itoa(cell))
	return pprof.Labels(kv...)
}

// runCellAttempt runs one attempt of one cell, reusing the worker's
// engine when one is handed in. It returns the engine for the next
// cell, or nil when the engine's state can no longer be trusted (a
// panic mid-run). The tracer and heap hook (possibly nil) are
// installed on the engine for exactly this attempt: engines are
// reused across cells, so both must be set unconditionally or a
// traced or probed cell would leak its hooks into the next cell the
// worker picks up.
func runCellAttempt(ctx context.Context, c Cell, e *sim.Engine, tracer obs.Tracer, hook sim.HeapHook, every int) (o Outcome, next *sim.Engine) {
	o = Outcome{Cell: c}
	next = e
	// A panicking program or manager must fail its own cell, not tear
	// down the whole sweep (and with it every other cell's result).
	defer func() {
		if r := recover(); r != nil {
			o.Err = fmt.Errorf("sweep: cell %q manager %q panicked: %w",
				c.Label, c.Manager, &panicCause{val: r})
			next = nil
		}
	}()
	if c.Program == nil {
		o.Err = fmt.Errorf("sweep: cell %q manager %q has no program constructor", c.Label, c.Manager)
		return o, next
	}
	mgr, err := mm.New(c.Manager)
	if err != nil {
		o.Err = err
		return o, next
	}
	if e == nil {
		if e, err = sim.NewEngine(c.Config, c.Program(), mgr); err != nil {
			o.Err = err
			return o, nil
		}
		next = e
	} else if err := e.Reset(c.Config, c.Program(), mgr); err != nil {
		o.Err = err
		return o, next
	}
	e.Tracer = tracer
	e.HeapHook = hook
	e.RoundHookEvery = every
	if ts, ok := mgr.(obs.TracerSetter); ok {
		ts.SetTracer(tracer)
	}
	res, err := e.RunCtx(ctx)
	o.Result, o.Err = res, err
	return o, next
}

// Holes returns the indices of failed cells — the explicit gaps in a
// degraded grid.
func Holes(outs []Outcome) []int {
	var holes []int
	for i, o := range outs {
		if o.Err != nil {
			holes = append(holes, i)
		}
	}
	return holes
}

// Grid builds the cross product of compaction bounds and manager
// names over a base configuration.
func Grid(base sim.Config, cs []int64, managers []string, label string, prog func() sim.Program) []Cell {
	var cells []Cell
	for _, c := range cs {
		for _, m := range managers {
			cfg := base
			cfg.C = c
			cells = append(cells, Cell{
				Label:   label,
				Config:  cfg,
				Manager: m,
				Program: prog,
			})
		}
	}
	return cells
}

// WriteCSV emits outcomes as CSV rows:
// label,manager,M,n,c,heap,waste,allocs,moves,moved,allocated,error.
func WriteCSV(w io.Writer, outs []Outcome) error {
	if _, err := fmt.Fprintln(w, "label,manager,M,n,c,heap_words,waste,allocs,moves,moved_words,allocated_words,error"); err != nil {
		return err
	}
	for _, o := range outs {
		errStr := ""
		if o.Err != nil {
			errStr = strings.ReplaceAll(o.Err.Error(), ",", ";")
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%.6f,%d,%d,%d,%d,%s\n",
			o.Cell.Label, o.Cell.Manager,
			o.Cell.Config.M, o.Cell.Config.N, o.Cell.Config.C,
			o.Result.HighWater, o.Result.WasteFactor(),
			o.Result.Allocs, o.Result.Moves,
			o.Result.Moved, o.Result.Allocated, errStr); err != nil {
			return err
		}
	}
	return nil
}

// Aggregate summarizes repeated runs of one manager across seeds.
type Aggregate struct {
	Manager  string
	Runs     int
	Failures int
	// Waste-factor statistics over the successful runs. The quantiles
	// are exact nearest-rank (stats.Summarize).
	Mean, Min, Max, StdDev float64
	P50, P90, P99          float64
}

// RepeatSeeds runs the same (config, manager) cell once per seed with
// programs built by mk, in parallel, and aggregates the waste factors.
// Randomized workloads use this to report mean±sd fragmentation
// instead of a single draw. Cancelling ctx stops the remaining cells,
// exactly as in RunOpts.
func RepeatSeeds(ctx context.Context, cfg sim.Config, manager string, seeds []int64, mk func(seed int64) sim.Program, parallelism int) (Aggregate, []Outcome) {
	cells := make([]Cell, len(seeds))
	for i, seed := range seeds {
		seed := seed
		cells[i] = Cell{
			Label:   fmt.Sprintf("seed=%d", seed),
			Config:  cfg,
			Manager: manager,
			Program: func() sim.Program { return mk(seed) },
		}
	}
	// Without a journal, RunOpts has no infrastructure error to report.
	outs, _ := RunOpts(ctx, cells, Options{Parallelism: parallelism})
	agg := Aggregate{Manager: manager, Runs: len(outs)}
	var wastes []float64
	for _, o := range outs {
		if o.Err != nil {
			agg.Failures++
			continue
		}
		wastes = append(wastes, o.Result.WasteFactor())
	}
	if len(wastes) > 0 {
		s := stats.Summarize(wastes)
		agg.Mean, agg.Min, agg.Max, agg.StdDev = s.Mean, s.Min, s.Max, s.StdDev
		agg.P50, agg.P90, agg.P99 = s.P50, s.P90, s.P99
	}
	return agg, outs
}

// Summary renders outcomes grouped by c as fixed-width text, best
// manager first within each group.
func Summary(outs []Outcome) string {
	byC := make(map[int64][]Outcome)
	var cs []int64
	for _, o := range outs {
		c := o.Cell.Config.C
		if _, ok := byC[c]; !ok {
			cs = append(cs, c)
		}
		byC[c] = append(byC[c], o)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	var b strings.Builder
	for _, c := range cs {
		group := byC[c]
		sort.Slice(group, func(i, j int) bool {
			return group[i].Result.WasteFactor() < group[j].Result.WasteFactor()
		})
		fmt.Fprintf(&b, "c=%d:\n", c)
		var wastes []float64
		for _, o := range group {
			if o.Err != nil {
				fmt.Fprintf(&b, "  %-20s FAILED: %v\n", o.Cell.Manager, o.Err)
				continue
			}
			fmt.Fprintf(&b, "  %-20s %8.3fx (%d words)\n",
				o.Cell.Manager, o.Result.WasteFactor(), o.Result.HighWater)
			wastes = append(wastes, o.Result.WasteFactor())
		}
		if len(wastes) > 1 {
			s := stats.Summarize(wastes)
			fmt.Fprintf(&b, "  waste p50/p90/p99: %.3f %.3f %.3f over %d managers\n",
				s.P50, s.P90, s.P99, s.Count)
		}
	}
	return b.String()
}
