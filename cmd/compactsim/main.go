// Command compactsim runs an adversary or workload against one or all
// memory managers and reports heap usage:
//
//	compactsim -adversary pf -M 65536 -n 256 -c 16
//	compactsim -adversary robson -manager best-fit
//	compactsim -adversary random -seed 7 -rounds 200 -manager all
//	compactsim -adversary profile:server           # canned app profile
//	compactsim -adversary profile:my.json          # profile from a file
//	compactsim -adversary pf -sweep 8,16,32,64     # parallel c sweep
//	compactsim -adversary random -shards 4         # sharded heap, any manager
//	compactsim -adversary random -check            # referee every invariant
//	compactsim -replay min.json -manager best-fit  # replay a saved trace
//	compactsim -adversary pf -manager first-fit -trace-out run.json
//	compactsim -adversary pf -manager first-fit -series-out hs.csv
//	compactsim -adversary pf -manager first-fit -heatmap-out heat.json
//	compactsim -adversary pf -sweep 8,16,32 -progress -metrics-addr :6060
//
// Every invocation runs in exactly one mode: -sweep -coordinate
// (-coordinate needs -sweep), else -sweep, else -seeds k with k > 1
// (one grid of managers × seeds 1..k, reported as each manager's
// mean±sd over the seeds), else a single run. Every flag set on the
// command line is checked against the modes that read it: a flag the
// chosen mode would ignore is a usage error (exit 2) naming the flag
// and those modes.
//
// The engine enforces the model (live bound M, compaction budget s/c,
// no overlapping placements); any violation aborts the run with an
// error identifying the guilty party. With -check the run is
// additionally refereed by internal/check, which re-verifies every
// invariant against independent shadow state and reports structured
// violations; the process exits nonzero if any are found. With
// -replay the program side comes from a recorded JSON trace (as
// written by tracegen -out or the check package's shrinker) instead of
// an adversary, using the trace's own M, n and c; this is the one
// replay frontend, for every manager, sharded ones included.
//
// Observability (internal/obs): -trace-out records the run's event
// stream (NDJSON for .ndjson paths, Chrome trace_event JSON otherwise
// — load the latter in Perfetto/chrome://tracing), -series-out writes
// the per-round HS/live/moved series as CSV, -heatmap-out writes a
// heapscope fragmentation heatmap artifact (free-interval histograms,
// largest free extent and an occupancy heatmap, multi-resolution over
// rounds — the same JSON compactd serves per job), -metrics-addr
// serves Prometheus metrics (/metrics/prom) and pprof over HTTP, and
// -progress prints a stderr ticker. Tracing applies to single runs
// against a single manager; -progress and -metrics-addr also cover
// -sweep via the sweep monitor.
//
// Fault tolerance: SIGINT/SIGTERM cancel the run cooperatively — the
// simulation stops at the next round boundary, trace and series sinks
// are flushed so partial artifacts stay valid, and the process exits
// with status 3 (0 success, 1 error, 2 usage). Sweeps additionally
// take -checkpoint (a durable journal of completed cells; rerunning
// with the same flags resumes exactly where the last run stopped, and
// the journal is removed once the grid completes), -cell-timeout (a
// wall-clock deadline per cell) and -retries (re-run failed cells
// with exponential backoff before declaring a hole):
//
//	compactsim -adversary pf -sweep 8,16,32 -checkpoint sweep.ckpt \
//	    -cell-timeout 5m -retries 2 -csv results.csv
//
// Distributed sweeps (internal/dist): -coordinate serves the grid's
// cells as fenced leases to worker processes (cmd/sweepworker) over
// localhost HTTP, journaling every committed cell in the -ledger
// directory so a crashed coordinator resumes mid-grid. Leases carry
// monotonic fencing tokens: a worker that crashes or hangs stops
// renewing, its cell is reassigned, and its late commit is rejected.
// Leases also carry -retries and -cell-timeout, which workers run
// each cell under, so a failing cell ends as the same hole in both
// modes. The merged CSV is byte-identical to a single-process run,
// holes included (scripts/chaos_drill.sh proves it under SIGKILL):
//
//	compactsim -adversary pf -sweep 8,16,32 -coordinate 127.0.0.1:7171 \
//	    -ledger sweep.ledger -csv results.csv &
//	sweepworker -coordinator http://127.0.0.1:7171 &
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"compaction/internal/bounds"
	"compaction/internal/budget"
	"compaction/internal/catalog"
	"compaction/internal/check"
	"compaction/internal/dist"
	"compaction/internal/heap/sharded"
	"compaction/internal/mm"
	"compaction/internal/obs"
	"compaction/internal/obs/heapscope"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/stats"
	"compaction/internal/sweep"
	"compaction/internal/trace"
	"compaction/internal/word"

	_ "compaction/internal/mm/all"
)

func main() {
	o, m, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compactsim:", err)
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the context; the engine and the sweep stop
	// cooperatively, sinks and checkpoints are flushed on the way out,
	// and the process reports the interruption with exit status 3. A
	// second signal kills the process the hard way (NotifyContext
	// restores default handling once the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch m {
	case modeSeeds:
		err = runSeeds(ctx, o)
	case modeSweep, modeCoordinate:
		err = runGrid(ctx, o)
	default:
		err = run(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compactsim:", err)
	}
	os.Exit(exitCode(ctx, err))
}

// exitCode maps an outcome to the process exit status: 0 success,
// 1 error, 3 interrupted by signal (2 is usage, decided at flag
// parsing). An error after the context was canceled is attributed to
// the interruption — the distinct status lets scripts tell "resume
// me" from "fix me" apart.
func exitCode(ctx context.Context, err error) int {
	switch {
	case err == nil:
		return 0
	case ctx.Err() != nil:
		return 3
	default:
		return 1
	}
}

// options holds every compactsim flag.
type options struct {
	adv, manager string
	m, n         word.FlagSize
	c            int64
	shards       int
	seed         int64
	rounds, ell  int
	seeds        int
	sweep, csv   string

	showMap                         bool
	check                           bool
	replay                          string
	traceOut, seriesOut, heatmapOut string
	heatmapEvery                    int
	metricsAddr                     string
	progress                        bool

	checkpoint  string
	cellTimeout time.Duration
	retries     int

	coordinate, ledger string
	leaseTTL           time.Duration
}

// defineFlags binds every flag on fs to the fields of one options.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{m: 1 << 16, n: 1 << 8}
	fs.StringVar(&o.adv, "adversary", "pf", "program: pf, robson, pw, random, rampdown")
	fs.StringVar(&o.manager, "manager", "all", `manager name or "all"`)
	fs.Var(&o.m, "M", "live-space bound M in words (e.g. 64Ki, 256Mi)")
	fs.Var(&o.n, "n", "largest object size in words (e.g. 256, 1Mi)")
	fs.Int64Var(&o.c, "c", 16, "compaction bound (0 = unlimited, -1 = none)")
	fs.IntVar(&o.shards, "shards", 0, "partition the heap into this many shards (0/1 = unsharded); "+
		"single runs wrap the manager in the sharded adapter, sweeps thread the count to the sharded-* managers")
	fs.Int64Var(&o.seed, "seed", 1, "seed for random workloads")
	fs.IntVar(&o.rounds, "rounds", 100, "rounds for random workloads")
	fs.IntVar(&o.ell, "ell", 0, "fix P_F's density exponent ℓ (0 = optimal)")
	fs.BoolVar(&o.showMap, "heapmap", false, "print an ASCII occupancy map after each run")
	fs.StringVar(&o.sweep, "sweep", "", "comma-separated c values: run the manager matrix in parallel")
	fs.StringVar(&o.csv, "csv", "", "write sweep results as CSV to this file")
	fs.IntVar(&o.seeds, "seeds", 1, "run seed-driven workloads this many times and report mean±sd")
	fs.BoolVar(&o.check, "check", false, "referee the run: re-verify every model invariant independently")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded trace artifact instead of an adversary")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the run's event trace to this file (.ndjson → NDJSON, otherwise Chrome trace_event JSON)")
	fs.StringVar(&o.seriesOut, "series-out", "", "write the per-round series (hs, waste, live, moved, budget) as CSV to this file")
	fs.StringVar(&o.heatmapOut, "heatmap-out", "", "write a heapscope heatmap artifact (free-interval histograms + occupancy heatmap, JSON) to this file")
	fs.IntVar(&o.heatmapEvery, "heatmap-every", 0, "heap sampling stride in rounds for -heatmap-out (0 = the heapscope default); "+
		"not with -check, which samples every round")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus metrics and pprof on this HTTP address (e.g. localhost:6060)")
	fs.BoolVar(&o.progress, "progress", false, "print a progress ticker to stderr while the run executes")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "durable sweep journal: completed cells survive a crash or signal and are not re-run on resume")
	fs.DurationVar(&o.cellTimeout, "cell-timeout", 0, "wall-clock deadline per sweep cell (0 = none)")
	fs.IntVar(&o.retries, "retries", 0, "re-run a failed sweep cell this many times (with backoff) before declaring a hole")
	fs.StringVar(&o.coordinate, "coordinate", "", "distribute the sweep: serve cell leases to workers on this HTTP address (e.g. 127.0.0.1:7171; needs -sweep)")
	fs.StringVar(&o.ledger, "ledger", "", "lease ledger directory for -coordinate: committed cells are journaled there and a restarted coordinator resumes from it")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 10*time.Second, "heartbeat timeout for -coordinate: a lease not renewed within it is reassigned to another worker")
	return o
}

// mode is a set of the ways compactsim runs; an invocation runs in
// exactly one of them.
type mode uint8

const (
	modeSingle mode = 1 << iota
	modeSeeds
	modeSweep
	modeCoordinate
)

var modeNames = [...]string{"a single run", "-seeds", "-sweep", "-coordinate"}

func (m mode) String() string {
	var names []string
	for i, name := range modeNames {
		if m&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, " or ")
}

// modeFlags is the one table of which modes read which flag. Flags
// absent from it are read by every mode (-adversary, -manager, -M,
// -n, -shards, -rounds, -ell) or choose the mode (-sweep,
// -coordinate, -seeds).
var modeFlags = map[string]mode{
	"c":             modeSingle | modeSeeds,
	"seed":          modeSingle | modeSweep | modeCoordinate,
	"heapmap":       modeSingle,
	"check":         modeSingle,
	"replay":        modeSingle,
	"trace-out":     modeSingle,
	"series-out":    modeSingle,
	"heatmap-out":   modeSingle,
	"heatmap-every": modeSingle,
	"csv":           modeSweep | modeCoordinate,
	"metrics-addr":  modeSingle | modeSweep | modeCoordinate,
	"progress":      modeSingle | modeSweep | modeCoordinate,
	"checkpoint":    modeSweep,
	"cell-timeout":  modeSweep | modeCoordinate,
	"retries":       modeSweep | modeCoordinate,
	"ledger":        modeCoordinate,
	"lease-ttl":     modeCoordinate,
}

// parse binds args to the flags on fs and picks the invocation's
// mode. An error is a usage error.
func parse(fs *flag.FlagSet, args []string) (*options, mode, error) {
	o := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, 0, err
	}
	m, err := o.checkMode(fs)
	return o, m, err
}

// checkMode picks the one mode o runs in and checks every flag set on
// fs against modeFlags, then the rules that depend on flag values.
func (o *options) checkMode(fs *flag.FlagSet) (mode, error) {
	m := modeSingle
	switch {
	case o.coordinate != "" && o.sweep == "":
		return 0, errors.New("-coordinate distributes a sweep; it needs -sweep")
	case o.coordinate != "":
		m = modeCoordinate
	case o.sweep != "":
		m = modeSweep
	case o.seeds > 1:
		m = modeSeeds
	}
	var err error
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if modes, ok := modeFlags[f.Name]; ok && modes&m == 0 && err == nil {
			err = fmt.Errorf("-%s is read by %s, not by %s", f.Name, modes, m)
		}
	})
	switch {
	case err != nil:
		return 0, err
	case o.seeds > 1 && m != modeSeeds:
		return 0, fmt.Errorf("-seeds %d repeats single runs; it is not read by %s", o.seeds, m)
	case set["heatmap-every"] && o.heatmapOut == "":
		return 0, errors.New("-heatmap-every sets the -heatmap-out stride; it needs -heatmap-out")
	case set["heatmap-every"] && o.check:
		return 0, errors.New("-heatmap-every is not read with -check, which samples the heap every round")
	case (o.traceOut != "" || o.seriesOut != "" || o.heatmapOut != "") && o.manager == "all":
		return 0, errors.New("-trace-out, -series-out and -heatmap-out record one manager's run; pick a single -manager")
	}
	return m, nil
}

// openTraceSink creates the trace file upfront — an unwritable path
// must fail the command before the simulation runs, not after — and
// returns the sink plus a closer that finalizes the file. A .ndjson
// path gets NDJSON, anything else Chrome trace_event JSON.
func openTraceSink(path string) (obs.Tracer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("-trace-out: %w", err)
	}
	if strings.HasSuffix(path, ".ndjson") {
		s := obs.NewNDJSONSink(f)
		return s, func() error {
			if err := s.Err(); err != nil {
				f.Close()
				return fmt.Errorf("-trace-out %s: %w", path, err)
			}
			return f.Close()
		}, nil
	}
	s := obs.NewChromeSink(f)
	return s, func() error {
		if err := s.Close(); err != nil {
			f.Close()
			return fmt.Errorf("-trace-out %s: %w", path, err)
		}
		return f.Close()
	}, nil
}

// startProgress launches a once-a-second stderr ticker over the
// engine metrics and returns a stop function.
func startProgress(label string, sm *obs.SimMetrics) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintf(os.Stderr, "compactsim: %s: round %d, live %s, hs %s, %d moves\n",
					label, sm.Rounds.Value(), word.Format(sm.Live.Value()),
					word.Format(sm.HighWater.Value()), sm.Moves.Value())
			}
		}
	}()
	return func() { close(done) }
}

// newManager constructs the named manager, wrapped in the sharded
// adapter when -shards asks for more than one shard. Managers that are
// already sharded read Config.Shards themselves.
func newManager(name string, shards int) (sim.Manager, error) {
	if shards > 1 && !strings.HasPrefix(name, "sharded-") {
		return sharded.Wrap(name)
	}
	return mm.New(name)
}

// managerList resolves -manager for every mode. A single run with
// -shards > 1 wraps each manager in the sharded adapter (wrap), so
// "all" then drops the registry's own sharded-* entries: wrapping the
// plain portfolio already produces each of them exactly once. -seeds
// and -sweep thread Config.Shards to the sharded-* managers instead
// and keep the whole registry.
func managerList(manager string, wrap bool) []string {
	if manager != "all" {
		return []string{manager}
	}
	names := mm.Names()
	if !wrap {
		return names
	}
	kept := names[:0:0]
	for _, name := range names {
		if !strings.HasPrefix(name, "sharded-") {
			kept = append(kept, name)
		}
	}
	return kept
}

// runGrid runs the -sweep grid and reports it. Only the run step
// differs between the two grid modes: in process through
// sweep.RunOpts, journaled under -checkpoint, or with -coordinate as
// fenced leases served to sweepworker processes, journaled under
// -ledger. Both number the cells in sweep.Grid's order and fail them
// under the same -retries and -cell-timeout, so they print the same
// summary and write the same CSV bytes.
func runGrid(ctx context.Context, o *options) error {
	cs, err := parseCs(o.sweep)
	if err != nil {
		return err
	}
	spec := dist.GridSpec{
		Program: o.adv, Seed: o.seed, Rounds: o.rounds, Ell: o.ell,
		M: o.m.Size(), N: o.n.Size(), Shards: o.shards,
		Cs: cs, Managers: managerList(o.manager, false),
	}
	cells, tasks, err := spec.Expand()
	if err != nil {
		return err
	}
	var mon *sweep.Monitor
	if o.progress || o.metricsAddr != "" {
		reg := obs.NewRegistry()
		mon = sweep.NewMonitor(reg)
		if o.metricsAddr != "" {
			addr, err := obs.Serve(o.metricsAddr, reg)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "compactsim: metrics on http://%s/metrics/prom\n", addr)
		}
	}
	if o.progress {
		defer mon.StartTicker(os.Stderr, time.Second)()
	}

	// The run step. resumeArg names the durable state a rerun resumes
	// from; remove deletes it once the grid completes without holes.
	var (
		outs      []sweep.Outcome
		waitErr   error
		resumeArg string
		remove    func() error
	)
	if o.coordinate == "" {
		opts := sweep.Options{
			CellTimeout: o.cellTimeout, Retries: o.retries, Seed: o.seed,
			Params: spec.Params(), Monitor: mon,
		}
		if o.checkpoint != "" {
			j, err := resume.Open(o.checkpoint)
			if err != nil {
				return fmt.Errorf("-checkpoint: %w", err)
			}
			if j.Len() > 0 {
				fmt.Fprintf(os.Stderr, "compactsim: resuming %d/%d cells from %s\n",
					j.Len(), len(cells), o.checkpoint)
			}
			opts.Journal, resumeArg = j, "-checkpoint "+o.checkpoint
			remove = func() error {
				if err := j.Remove(); err != nil {
					return fmt.Errorf("-checkpoint: removing completed journal: %w", err)
				}
				return nil
			}
		}
		if outs, err = sweep.RunOpts(ctx, cells, opts); err != nil {
			return err
		}
	} else {
		var ledger *resume.Ledger
		if o.ledger != "" {
			if ledger, err = resume.OpenLedger(o.ledger); err != nil {
				return fmt.Errorf("-ledger: %w", err)
			}
			defer ledger.Close()
			resumeArg = "-ledger " + o.ledger
			remove = func() error {
				if err := ledger.Close(); err != nil {
					return fmt.Errorf("-ledger: %w", err)
				}
				if err := resume.RemoveLedger(o.ledger); err != nil {
					return fmt.Errorf("-ledger: removing completed ledger: %w", err)
				}
				return nil
			}
		}
		coord, err := dist.NewCoordinator(tasks, ledger, dist.Options{
			LeaseTTL: o.leaseTTL, Retries: o.retries, CellTimeout: o.cellTimeout,
			Params: spec.Params(), Monitor: mon,
		})
		if err != nil {
			return err
		}
		if n := coord.Restored(); n > 0 {
			fmt.Fprintf(os.Stderr, "compactsim: resuming %d/%d cells from %s\n", n, len(tasks), o.ledger)
		}
		l, err := net.Listen("tcp", o.coordinate)
		if err != nil {
			return fmt.Errorf("-coordinate: %w", err)
		}
		fmt.Fprintf(os.Stderr, "compactsim: coordinating %d cells on http://%s (lease TTL %s)\n",
			len(tasks), l.Addr(), o.leaseTTL)
		waitErr = dist.Serve(ctx, coord, l)
		outs = coord.Outcomes()
	}

	if o.progress {
		fmt.Fprintln(os.Stderr, mon.Snapshot().Line())
	}
	fmt.Printf("sweep: adversary=%s M=%s n=%s\n", o.adv, word.Format(spec.M), word.Format(spec.N))
	fmt.Print(sweep.Summary(outs))
	if o.csv != "" {
		f, err := os.Create(o.csv)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sweep.WriteCSV(f, outs); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.csv)
	}
	holes := sweep.Holes(outs)
	if ctx.Err() != nil {
		if resumeArg != "" {
			fmt.Fprintf(os.Stderr, "compactsim: interrupted with %d/%d cells done; rerun with %s to resume\n",
				len(cells)-len(holes), len(cells), resumeArg)
		}
		return fmt.Errorf("sweep interrupted: %d of %d cells incomplete", len(holes), len(cells))
	}
	if waitErr != nil {
		// Fenced by a successor coordinator, or durability degraded
		// mid-run. Results (if any) were reported above; the error is
		// still an error.
		return waitErr
	}
	if len(holes) > 0 {
		// Graceful degradation: the grid completed with explicit holes
		// (failed cells, visible in the summary and the CSV error
		// column). The journal or ledger is kept so a rerun retries
		// only those cells.
		fmt.Fprintf(os.Stderr, "compactsim: %d of %d cells failed (explicit holes; see the error column)\n",
			len(holes), len(cells))
		return nil
	}
	if remove != nil {
		return remove()
	}
	return nil
}

// parseCs parses the -sweep list of compaction bounds.
func parseCs(spec string) ([]int64, error) {
	var cs []int64
	for _, part := range strings.Split(spec, ",") {
		c, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -sweep value %q: %w", part, err)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// runSeeds runs a seed-driven workload over seeds 1..k against each
// manager as one grid of managers × seeds, and prints each manager's
// waste-factor statistics over its seeds.
func runSeeds(ctx context.Context, o *options) error {
	cfg := sim.Config{M: o.m.Size(), N: o.n.Size(), C: o.c, Shards: o.shards}
	progs := make([]func() sim.Program, o.seeds)
	for k := range progs {
		mk, pow2, err := catalog.New(o.adv, catalog.Params{Seed: int64(k + 1), Rounds: o.rounds, Ell: o.ell})
		if err != nil {
			return err
		}
		progs[k], cfg.Pow2Only = mk, pow2
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	managers := managerList(o.manager, false)
	var cells []sweep.Cell
	for _, name := range managers {
		for k, mk := range progs {
			cells = append(cells, sweep.Cell{Label: fmt.Sprintf("seed=%d", k+1), Config: cfg, Manager: name, Program: mk})
		}
	}
	fmt.Printf("adversary=%s M=%s n=%s c=%d seeds=%d\n", o.adv, word.Format(cfg.M), word.Format(cfg.N), cfg.C, o.seeds)
	// Without a journal, RunOpts has no infrastructure error to report.
	outs, _ := sweep.RunOpts(ctx, cells, sweep.Options{})
	// An interrupted sweep must exit 3, not report its canceled cells
	// as failures and exit 0.
	if ctx.Err() != nil {
		return fmt.Errorf("seeds sweep interrupted: %w", context.Cause(ctx))
	}
	fmt.Printf("%-20s %10s %10s %10s %10s %s\n", "manager", "mean", "min", "max", "sd", "failures")
	for i, name := range managers {
		var wastes []float64
		failures := 0
		for _, out := range outs[i*o.seeds : (i+1)*o.seeds] {
			if out.Err != nil {
				failures++
				continue
			}
			wastes = append(wastes, out.Result.WasteFactor())
		}
		s := stats.Summarize(wastes)
		fmt.Printf("%-20s %9.3fx %9.3fx %9.3fx %10.4f %d\n", name, s.Mean, s.Min, s.Max, s.StdDev, failures)
	}
	return nil
}

// run is the single-run mode: the program (or a replayed trace)
// against each manager in turn, with the observability sinks.
func run(ctx context.Context, o *options) (err error) {
	adv := o.adv
	var makeProg func() sim.Program
	cfg := sim.Config{M: o.m.Size(), N: o.n.Size(), C: o.c, Shards: o.shards}
	if o.replay != "" {
		tr, err := check.ReadArtifact(o.replay)
		if err != nil {
			return err
		}
		// The recorded parameters define the model the trace is legal
		// under; command-line M/n/c do not apply. -shards is a
		// manager-side knob, not part of the model, so it still does.
		cfg = sim.Config{M: tr.M, N: tr.N, C: tr.C, Shards: o.shards}
		adv = "replay:" + tr.Program
		makeProg = func() sim.Program { return trace.NewReplayer(tr) }
	} else {
		mk, pow2, err := catalog.New(adv, catalog.Params{Seed: o.seed, Rounds: o.rounds, Ell: o.ell})
		if err != nil {
			return err
		}
		makeProg, cfg.Pow2Only = mk, pow2
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	// Observability sinks: files open before the run so unwritable
	// paths fail fast, metrics always present when anything needs the
	// gauges (progress ticker, HTTP endpoint).
	var (
		tracers []obs.Tracer
		closers []func() error
		metrics *obs.SimMetrics
		series  *obs.SeriesRecorder
	)
	if o.progress || o.metricsAddr != "" {
		reg := obs.NewRegistry()
		metrics = obs.NewSimMetrics(reg)
		tracers = append(tracers, metrics)
		if o.metricsAddr != "" {
			addr, err := obs.Serve(o.metricsAddr, reg)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "compactsim: metrics on http://%s/metrics/prom (pprof /debug/pprof)\n", addr)
		}
	}
	if o.traceOut != "" {
		sink, closeSink, err := openTraceSink(o.traceOut)
		if err != nil {
			return err
		}
		tracers = append(tracers, sink)
		closers = append(closers, closeSink)
	}
	if o.seriesOut != "" {
		f, err := os.Create(o.seriesOut)
		if err != nil {
			return fmt.Errorf("-series-out: %w", err)
		}
		series = &obs.SeriesRecorder{}
		tracers = append(tracers, series)
		m := cfg.M
		closers = append(closers, func() error {
			if err := series.WriteCSV(f, m); err != nil {
				f.Close()
				return fmt.Errorf("-series-out %s: %w", o.seriesOut, err)
			}
			return f.Close()
		})
	}
	var scope *heapscope.Sampler
	if o.heatmapOut != "" {
		f, err := os.Create(o.heatmapOut)
		if err != nil {
			return fmt.Errorf("-heatmap-out: %w", err)
		}
		hc := heapscope.Config{}
		if o.shards > 1 {
			hc = heapscope.Config{Shards: o.shards, Capacity: cfg.M * sim.DefaultCapacityFactor}
		}
		scope, err = heapscope.New(hc)
		if err != nil {
			// Shard count does not divide the heap: fall back to the
			// single-strip view rather than refusing the artifact.
			scope, _ = heapscope.New(heapscope.Config{})
		}
		closers = append(closers, func() error {
			if _, err := f.Write(append(scope.AppendJSON(nil), '\n')); err != nil {
				f.Close()
				return fmt.Errorf("-heatmap-out %s: %w", o.heatmapOut, err)
			}
			return f.Close()
		})
	}
	// Every exit path below — success, model violation, referee
	// failure, cancellation — must finalize the sinks, or an aborted
	// run leaves a truncated Chrome trace or an empty series CSV on
	// disk. The deferred flush covers the error paths; the success
	// path flushes explicitly (making it a no-op in the defer) so sink
	// errors still fail the command.
	flushed := false
	flushSinks := func() error {
		if flushed {
			return nil
		}
		flushed = true
		var first error
		for _, closeSink := range closers {
			if err := closeSink(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	defer func() {
		if ferr := flushSinks(); err == nil {
			err = ferr
		}
	}()
	tracer := obs.Tee(tracers...)
	var rows []stats.RunRow
	violations := 0
	for _, name := range managerList(o.manager, o.shards > 1) {
		mgr, err := newManager(name, o.shards)
		if err != nil {
			return err
		}
		name = mgr.Name() // the sharded wrapper renames, e.g. first-fit → sharded-first-fit
		var ref *check.Referee
		if o.check {
			ref = check.NewReferee(mgr)
			mgr = ref
		}
		e, err := sim.NewEngine(cfg, makeProg(), mgr)
		if err != nil {
			return err
		}
		if ref != nil {
			e.RoundHook = ref.CheckRound
		}
		if scope != nil {
			e.HeapHook = scope.Sample
			if ref == nil {
				// RoundHookEvery thins both hooks, and the referee's
				// must fire every round; without one the heatmap picks
				// its stride (or the heapscope default).
				if o.heatmapEvery > 0 {
					e.RoundHookEvery = o.heatmapEvery
				} else {
					e.RoundHookEvery = heapscope.DefaultEvery
				}
			}
		}
		if tracer != nil {
			e.Tracer = tracer
			if ts, ok := mgr.(obs.TracerSetter); ok {
				ts.SetTracer(tracer)
			}
		}
		var stopTicker func()
		if o.progress {
			stopTicker = startProgress(adv+" vs "+name, metrics)
		}
		res, err := e.RunCtx(ctx)
		if stopTicker != nil {
			stopTicker()
		}
		if ref != nil {
			for _, v := range ref.Violations() {
				fmt.Printf("%s: %s\n", name, v)
			}
			violations += len(ref.Violations())
		}
		if err != nil {
			return fmt.Errorf("%s vs %s: %w", adv, name, err)
		}
		rows = append(rows, stats.RunRow{Manager: name, Result: res})
		if o.showMap {
			fmt.Printf("%-18s %s", name, stats.HeapMap(e.Occupancy(), e.Extent(), 72))
		}
	}
	// Finalize the sinks: the Chrome epilogue and the series CSV are
	// written here, and a sink that failed mid-run fails the command.
	if err := flushSinks(); err != nil {
		return err
	}
	if o.traceOut != "" {
		fmt.Printf("wrote %s\n", o.traceOut)
	}
	if o.seriesOut != "" {
		fmt.Printf("wrote %s\n", o.seriesOut)
	}
	if o.heatmapOut != "" {
		fmt.Printf("wrote %s\n", o.heatmapOut)
	}
	fmt.Printf("adversary=%s M=%s n=%s c=%d\n", adv, word.Format(cfg.M), word.Format(cfg.N), cfg.C)
	fmt.Print(stats.Table(rows))
	printBounds(adv, cfg)
	if violations > 0 {
		return fmt.Errorf("referee found %d invariant violations", violations)
	}
	if o.check {
		fmt.Println("referee: all invariants verified, no violations")
	}
	return nil
}

func printBounds(adv string, cfg sim.Config) {
	switch adv {
	case "pf":
		if cfg.C >= 2 {
			if h, ellUsed, err := bounds.Theorem1(bounds.Params{M: cfg.M, N: cfg.N, C: cfg.C}); err == nil {
				fmt.Printf("Theorem 1 floor: every manager above must be ≥ %.4f·M (ℓ=%d)\n", h, ellUsed)
			}
		}
	case "robson":
		if cfg.C == budget.NoCompaction {
			fmt.Printf("Robson floor for non-moving managers: %.4f·M\n",
				bounds.RobsonLower(cfg.M, cfg.N))
		}
	}
}
