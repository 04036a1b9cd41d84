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
//	compactsim -replay min.bin -manager best-fit   # replay a saved trace
//	compactsim -adversary pf -manager first-fit -trace-out run.json
//	compactsim -adversary pf -manager first-fit -series-out hs.csv
//	compactsim -adversary pf -manager first-fit -heatmap-out heat.json
//	compactsim -adversary pf -sweep 8,16,32 -progress -metrics-addr :6060
//
// The engine enforces the model (live bound M, compaction budget s/c,
// no overlapping placements); any violation aborts the run with an
// error identifying the guilty party. With -check the run is
// additionally refereed by internal/check, which re-verifies every
// invariant against independent shadow state and reports structured
// violations; the process exits nonzero if any are found. With
// -replay the program side comes from a recorded trace artifact (as
// written by trace.WriteBinary or the check package's shrinker)
// instead of an adversary, using the trace's own M, n and c.
//
// Observability (internal/obs): -trace-out records the run's event
// stream (NDJSON for .ndjson paths, Chrome trace_event JSON otherwise
// — load the latter in Perfetto/chrome://tracing), -series-out writes
// the per-round HS/live/moved series as CSV, -heatmap-out writes a
// heapscope fragmentation heatmap artifact (free-interval histograms,
// largest free extent and an occupancy heatmap, multi-resolution over
// rounds — the same JSON compactd serves per job), -metrics-addr
// serves live metrics, expvar and pprof over HTTP, and -progress
// prints a stderr ticker. Tracing applies to single runs against a
// single manager; -progress and -metrics-addr also cover -sweep via
// the sweep monitor.
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
// cells as fenced leases to worker processes over localhost HTTP,
// journaling every claim and commit in the -ledger directory so a
// crashed coordinator resumes mid-grid; -worker turns this binary
// into such a worker (cmd/sweepworker is the dedicated frontend).
// Leases carry monotonic fencing tokens: a worker that crashes or
// hangs stops renewing, its cell is reassigned, and its late commit
// is rejected. The merged CSV is byte-identical to a single-process
// run (scripts/chaos_drill.sh proves it under SIGKILL):
//
//	compactsim -adversary pf -sweep 8,16,32 -coordinate 127.0.0.1:7171 \
//	    -ledger sweep.ledger -csv results.csv &
//	compactsim -worker http://127.0.0.1:7171 &
//	sweepworker -coordinator http://127.0.0.1:7171 &
package main

import (
	"context"
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
	var (
		adv     = flag.String("adversary", "pf", "program: pf, robson, pw, random, rampdown")
		manager = flag.String("manager", "all", `manager name or "all"`)
		mFlag   = word.NewFlagSize(flag.CommandLine, "M", 1<<16, "live-space bound M in words (e.g. 64Ki, 256Mi)")
		nFlag   = word.NewFlagSize(flag.CommandLine, "n", 1<<8, "largest object size in words (e.g. 256, 1Mi)")
		cFlag   = flag.Int64("c", 16, "compaction bound (0 = unlimited, -1 = none)")
		shards  = flag.Int("shards", 0, "partition the heap into this many shards (0/1 = unsharded); "+
			"single runs wrap the manager in the sharded adapter, sweeps thread the count to the sharded-* managers")
		seed       = flag.Int64("seed", 1, "seed for random workloads")
		rounds     = flag.Int("rounds", 100, "rounds for random workloads")
		ell        = flag.Int("ell", 0, "fix P_F's density exponent ℓ (0 = optimal)")
		showMap    = flag.Bool("heapmap", false, "print an ASCII occupancy map after each run")
		sweepCs    = flag.String("sweep", "", "comma-separated c values: run the manager matrix in parallel")
		csvOut     = flag.String("csv", "", "write sweep results as CSV to this file")
		seeds      = flag.Int("seeds", 1, "run seed-driven workloads this many times and report mean±sd")
		checkRun   = flag.Bool("check", false, "referee the run: re-verify every model invariant independently")
		checkEvery = flag.Int("checkevery", 1, "sample the referee's full-heap sweep every k rounds; ignored without -check "+
			"(k > 1 keeps refereed paper-scale runs affordable; per-op bookkeeping stays exact)")
		replay       = flag.String("replay", "", "replay a recorded trace artifact instead of an adversary")
		traceOut     = flag.String("trace-out", "", "write the run's event trace to this file (.ndjson → NDJSON, otherwise Chrome trace_event JSON)")
		traceFormat  = flag.String("trace-format", "auto", "trace file format: auto, ndjson or chrome")
		seriesOut    = flag.String("series-out", "", "write the per-round series (hs, waste, live, moved, budget) as CSV to this file")
		heatmapOut   = flag.String("heatmap-out", "", "write a heapscope heatmap artifact (free-interval histograms + occupancy heatmap, JSON) to this file")
		heatmapEvery = flag.Int("heatmap-every", 0, "heap sampling stride in rounds for -heatmap-out (0 = the heapscope default; ignored with -check, whose -checkevery wins)")
		metricsAddr  = flag.String("metrics-addr", "", "serve live metrics, expvar and pprof on this HTTP address (e.g. localhost:6060)")
		progress     = flag.Bool("progress", false, "print a progress ticker to stderr while the run executes")
		checkpoint   = flag.String("checkpoint", "", "durable sweep journal: completed cells survive a crash or signal and are not re-run on resume")
		cellTimeout  = flag.Duration("cell-timeout", 0, "wall-clock deadline per sweep cell (0 = none)")
		retries      = flag.Int("retries", 0, "re-run a failed sweep cell this many times (with backoff) before declaring a hole")
		coordinate   = flag.String("coordinate", "", "distribute the sweep: serve cell leases to workers on this HTTP address (e.g. 127.0.0.1:7171; needs -sweep)")
		ledgerDir    = flag.String("ledger", "", "lease ledger directory for -coordinate: claims and commits are journaled there and a restarted coordinator resumes from it")
		leaseTTL     = flag.Duration("lease-ttl", 10*time.Second, "heartbeat timeout for -coordinate: a lease not renewed within it is reassigned to another worker")
		maxFailures  = flag.Int("max-failures", 3, "poison-cell threshold for -coordinate: quarantine a cell after this many failed attempts across workers")
		workerURL    = flag.String("worker", "", "run as a distributed-sweep worker against this coordinator URL (or - for NDJSON over stdin/stdout); sweep flags come from the coordinator")
		workerID     = flag.String("worker-id", "", "worker name for -worker (default worker-<pid>)")
		inject       = flag.String("inject", "", "with -worker: process fault to inject for chaos drills (kill-at-cell=N, kill-at-commit=N, hang-at-cell=N, dup-commit=N)")
	)
	flag.Parse()
	if *workerURL != "" {
		// Worker mode is a different program: leases in, results out,
		// its own two-stage signal drain (first signal finishes the
		// in-flight cell, second abandons it). Exit codes match ours.
		os.Exit(dist.RunWorkerCLI(context.Background(), dist.CLIConfig{
			URL: *workerURL, ID: *workerID, CellTimeout: *cellTimeout, Inject: *inject,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "compactsim: "+format+"\n", args...)
			},
		}))
	}
	oo := obsOpts{
		traceOut: *traceOut, traceFormat: *traceFormat, seriesOut: *seriesOut,
		heatmapOut: *heatmapOut, heatmapEvery: *heatmapEvery,
		metricsAddr: *metricsAddr, progress: *progress,
	}
	ft := ftOpts{checkpoint: *checkpoint, cellTimeout: *cellTimeout, retries: *retries}
	dd := distOpts{coordinate: *coordinate, ledger: *ledgerDir, leaseTTL: *leaseTTL, maxFailures: *maxFailures}
	if msg := oo.validate(*manager, *sweepCs != "", *seeds); msg != "" {
		fmt.Fprintln(os.Stderr, "compactsim:", msg)
		os.Exit(2)
	}
	if msg := ft.validate(*sweepCs != ""); msg != "" {
		fmt.Fprintln(os.Stderr, "compactsim:", msg)
		os.Exit(2)
	}
	if msg := dd.validate(*sweepCs != "", *seeds, *checkpoint, *inject); msg != "" {
		fmt.Fprintln(os.Stderr, "compactsim:", msg)
		os.Exit(2)
	}
	if (*replay != "" || *checkRun) && (*seeds > 1 || *sweepCs != "") {
		fmt.Fprintln(os.Stderr, "compactsim: -replay and -check apply to single runs, not -sweep or -seeds")
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the context; the engine and the sweep stop
	// cooperatively, sinks and checkpoints are flushed on the way out,
	// and the process reports the interruption with exit status 3. A
	// second signal kills the process the hard way (NotifyContext
	// restores default handling once the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if *seeds > 1 {
		err = runSeeds(ctx, *adv, *manager, mFlag.Size(), nFlag.Size(), *cFlag, *shards, *seeds, *rounds, *ell)
	} else if *sweepCs != "" {
		o := sweepOpts{
			adv: *adv, manager: *manager,
			m: mFlag.Size(), n: nFlag.Size(), shards: *shards,
			sweepCs: *sweepCs, csvOut: *csvOut,
			seed: *seed, rounds: *rounds, ell: *ell,
			obs: oo, ft: ft, dist: dd,
		}
		if dd.coordinate != "" {
			err = runCoordinate(ctx, o)
		} else {
			err = runSweep(ctx, o)
		}
	} else {
		err = run(ctx, runOpts{
			adv: *adv, manager: *manager,
			m: mFlag.Size(), n: nFlag.Size(), c: *cFlag, shards: *shards,
			seed: *seed, rounds: *rounds, ell: *ell,
			showMap: *showMap, check: *checkRun, checkEvery: *checkEvery, replay: *replay,
			obs: oo,
		})
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

// ftOpts bundles the sweep fault-tolerance flags.
type ftOpts struct {
	checkpoint  string
	cellTimeout time.Duration
	retries     int
}

// validate rejects fault-tolerance flags outside a sweep: single runs
// have no grid to journal or retry.
func (f ftOpts) validate(sweeping bool) string {
	if sweeping {
		return ""
	}
	switch {
	case f.checkpoint != "":
		return "-checkpoint journals a sweep; it needs -sweep"
	case f.cellTimeout != 0:
		return "-cell-timeout bounds sweep cells; it needs -sweep"
	case f.retries != 0:
		return "-retries re-runs sweep cells; it needs -sweep"
	}
	return ""
}

// obsOpts bundles the observability flags.
type obsOpts struct {
	traceOut, traceFormat string
	seriesOut             string
	heatmapOut            string
	heatmapEvery          int
	metricsAddr           string
	progress              bool
}

// validate rejects flag combinations the sinks cannot honor. It
// returns a usage message, or "" when the combination is fine.
func (o obsOpts) validate(manager string, sweeping bool, seeds int) string {
	tracing := o.traceOut != "" || o.seriesOut != "" || o.heatmapOut != ""
	switch {
	case o.traceFormat != "auto" && o.traceFormat != "ndjson" && o.traceFormat != "chrome":
		return fmt.Sprintf("unknown -trace-format %q (want auto, ndjson or chrome)", o.traceFormat)
	case o.traceFormat != "auto" && o.traceOut == "":
		return "-trace-format is meaningless without -trace-out"
	case tracing && (sweeping || seeds > 1):
		return "-trace-out, -series-out and -heatmap-out record a single run, not -sweep or -seeds"
	case tracing && manager == "all":
		return "-trace-out, -series-out and -heatmap-out record one manager's run; pick a single -manager"
	case (o.progress || o.metricsAddr != "") && seeds > 1:
		return "-progress and -metrics-addr are not supported with -seeds"
	}
	return ""
}

// openTraceSink creates the trace file upfront — an unwritable path
// must fail the command before the simulation runs, not after — and
// returns the sink plus a closer that finalizes the file.
func openTraceSink(path, format string) (obs.Tracer, func() error, error) {
	if format == "auto" {
		if strings.HasSuffix(path, ".ndjson") {
			format = "ndjson"
		} else {
			format = "chrome"
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("-trace-out: %w", err)
	}
	if format == "ndjson" {
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

// sweepOpts bundles the -sweep mode's inputs.
type sweepOpts struct {
	adv, manager    string
	m, n            int64
	shards          int
	sweepCs, csvOut string
	seed            int64
	rounds, ell     int
	obs             obsOpts
	ft              ftOpts
	dist            distOpts
}

// distOpts bundles the distributed-sweep coordinator flags.
type distOpts struct {
	coordinate  string
	ledger      string
	leaseTTL    time.Duration
	maxFailures int
}

// validate rejects distributed flags that cannot work together.
func (d distOpts) validate(sweeping bool, seeds int, checkpoint, inject string) string {
	if inject != "" {
		return "-inject plants worker faults; it needs -worker"
	}
	if d.coordinate == "" {
		if d.ledger != "" {
			return "-ledger journals a coordinator's leases; it needs -coordinate"
		}
		return ""
	}
	switch {
	case !sweeping:
		return "-coordinate distributes a sweep; it needs -sweep"
	case seeds > 1:
		return "-coordinate distributes a -sweep grid; it does not support -seeds"
	case checkpoint != "":
		return "-coordinate journals through -ledger; drop -checkpoint"
	}
	return ""
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

// managerList resolves -manager for a single run. With -shards > 1 and
// "all", the registry's own sharded-* entries are dropped: wrapping the
// plain portfolio already produces each of them exactly once.
func managerList(manager string, shards int) []string {
	if manager != "all" {
		return []string{manager}
	}
	names := mm.Names()
	if shards <= 1 {
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

// journalParams encodes the program identity a checkpoint journal is
// bound to. The cell fingerprints cover the grid's shape (index,
// label, manager, config); everything else that changes what a cell
// computes must appear here, so a journal can never be resumed under
// different flags.
func journalParams(o sweepOpts) string {
	return fmt.Sprintf("adv=%s seed=%d rounds=%d ell=%d", o.adv, o.seed, o.rounds, o.ell)
}

func runSweep(ctx context.Context, o sweepOpts) error {
	makeProg, pow2, err := newProgram(o.adv, o.seed, o.rounds, o.ell)
	if err != nil {
		return err
	}
	cs, err := parseCs(o.sweepCs)
	if err != nil {
		return err
	}
	managers := []string{o.manager}
	if o.manager == "all" {
		managers = mm.Names()
	}
	base := sim.Config{M: o.m, N: o.n, Pow2Only: pow2, Shards: o.shards}
	cells := sweep.Grid(base, cs, managers, o.adv, makeProg)
	opts := sweep.Options{
		CellTimeout: o.ft.cellTimeout,
		Retries:     o.ft.retries,
		Seed:        o.seed,
		Params:      journalParams(o),
	}
	if o.ft.checkpoint != "" {
		j, err := resume.Open(o.ft.checkpoint)
		if err != nil {
			return fmt.Errorf("-checkpoint: %w", err)
		}
		if j.Len() > 0 {
			fmt.Fprintf(os.Stderr, "compactsim: resuming %d/%d cells from %s\n",
				j.Len(), len(cells), o.ft.checkpoint)
		}
		opts.Journal = j
	}
	if o.obs.progress || o.obs.metricsAddr != "" {
		reg := obs.NewRegistry()
		opts.Monitor = sweep.NewMonitor(reg)
		if o.obs.metricsAddr != "" {
			addr, err := obs.Serve(o.obs.metricsAddr, "compactsim", reg)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "compactsim: metrics on http://%s/metrics\n", addr)
		}
	}
	if o.obs.progress {
		defer opts.Monitor.StartTicker(os.Stderr, time.Second)()
	}
	outs, err := sweep.RunOpts(ctx, cells, opts)
	if err != nil {
		return err
	}
	if o.obs.progress {
		fmt.Fprintln(os.Stderr, opts.Monitor.Snapshot().Line())
	}
	fmt.Printf("sweep: adversary=%s M=%s n=%s\n", o.adv, word.Format(o.m), word.Format(o.n))
	fmt.Print(sweep.Summary(outs))
	if o.csvOut != "" {
		f, err := os.Create(o.csvOut)
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
		fmt.Printf("wrote %s\n", o.csvOut)
	}
	holes := sweep.Holes(outs)
	if ctx.Err() != nil {
		if o.ft.checkpoint != "" {
			fmt.Fprintf(os.Stderr, "compactsim: interrupted with %d/%d cells done; rerun with -checkpoint %s to resume\n",
				len(cells)-len(holes), len(cells), o.ft.checkpoint)
		}
		return fmt.Errorf("sweep interrupted: %d of %d cells incomplete", len(holes), len(cells))
	}
	if len(holes) > 0 {
		// Graceful degradation: the grid completed with explicit holes
		// (visible in the summary and the CSV error column). The journal
		// is kept so a rerun retries only the failed cells.
		fmt.Fprintf(os.Stderr, "compactsim: %d of %d cells failed (explicit holes; see the error column)\n",
			len(holes), len(cells))
		return nil
	}
	if opts.Journal != nil {
		if err := opts.Journal.Remove(); err != nil {
			return fmt.Errorf("-checkpoint: removing completed journal: %w", err)
		}
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

// runCoordinate runs the sweep as a distributed coordinator: the grid
// is sharded into fenced leases served over HTTP, workers (sweepworker
// or compactsim -worker) run the cells, and the merged results are
// reported exactly as a local -sweep would report them — same summary,
// same CSV bytes.
func runCoordinate(ctx context.Context, o sweepOpts) error {
	cs, err := parseCs(o.sweepCs)
	if err != nil {
		return err
	}
	managers := []string{o.manager}
	if o.manager == "all" {
		managers = mm.Names()
	}
	spec := dist.GridSpec{
		Program: o.adv, Seed: o.seed, Rounds: o.rounds, Ell: o.ell,
		M: o.m, N: o.n, Shards: o.shards,
		Cs: cs, Managers: managers,
	}
	_, tasks, err := spec.Expand()
	if err != nil {
		return err
	}
	var ledger *resume.Ledger
	if o.dist.ledger != "" {
		ledger, err = resume.OpenLedger(o.dist.ledger)
		if err != nil {
			return fmt.Errorf("-ledger: %w", err)
		}
		defer ledger.Close()
	}
	var mon *sweep.Monitor
	if o.obs.progress || o.obs.metricsAddr != "" {
		reg := obs.NewRegistry()
		mon = sweep.NewMonitor(reg)
		if o.obs.metricsAddr != "" {
			addr, err := obs.Serve(o.obs.metricsAddr, "compactsim", reg)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "compactsim: metrics on http://%s/metrics\n", addr)
		}
	}
	coord, err := dist.NewCoordinator(tasks, ledger, dist.Options{
		LeaseTTL: o.dist.leaseTTL, MaxFailures: o.dist.maxFailures,
		Params: journalParams(o), Monitor: mon,
	})
	if err != nil {
		return err
	}
	if n := coord.Restored(); n > 0 {
		fmt.Fprintf(os.Stderr, "compactsim: resuming %d/%d cells from %s\n", n, len(tasks), o.dist.ledger)
	}
	l, err := net.Listen("tcp", o.dist.coordinate)
	if err != nil {
		return fmt.Errorf("-coordinate: %w", err)
	}
	srv := dist.Serve(coord, l)
	defer func() {
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	fmt.Fprintf(os.Stderr, "compactsim: coordinating %d cells on http://%s (lease TTL %s)\n",
		len(tasks), l.Addr(), o.dist.leaseTTL)
	if o.obs.progress {
		defer mon.StartTicker(os.Stderr, time.Second)()
	}

	waitErr := coord.Wait(ctx)
	outs := coord.Outcomes()
	if o.obs.progress {
		fmt.Fprintln(os.Stderr, mon.Snapshot().Line())
	}
	fmt.Printf("sweep: adversary=%s M=%s n=%s\n", o.adv, word.Format(o.m), word.Format(o.n))
	fmt.Print(sweep.Summary(outs))
	if o.csvOut != "" {
		f, err := os.Create(o.csvOut)
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
		fmt.Printf("wrote %s\n", o.csvOut)
	}
	holes := sweep.Holes(outs)
	if ctx.Err() != nil {
		if o.dist.ledger != "" {
			fmt.Fprintf(os.Stderr, "compactsim: interrupted with %d/%d cells done; rerun with -ledger %s to resume\n",
				len(tasks)-len(holes), len(tasks), o.dist.ledger)
		}
		return fmt.Errorf("sweep interrupted: %d of %d cells incomplete", len(holes), len(tasks))
	}
	if waitErr != nil {
		// Fenced by a successor coordinator, or durability degraded
		// mid-run. Results (if any) were reported above; the error is
		// still an error.
		return waitErr
	}
	if len(holes) > 0 {
		// Quarantined poison cells: the grid completed with explicit
		// typed holes and the ledger is kept so a rerun retries only
		// those cells.
		fmt.Fprintf(os.Stderr, "compactsim: %d of %d cells failed (explicit holes; see the error column)\n",
			len(holes), len(tasks))
		return nil
	}
	if o.dist.ledger != "" {
		if err := ledger.Close(); err != nil {
			return fmt.Errorf("-ledger: %w", err)
		}
		if err := resume.RemoveLedger(o.dist.ledger); err != nil {
			return fmt.Errorf("-ledger: removing completed ledger: %w", err)
		}
	}
	return nil
}

// newProgram resolves -adversary through the shared program catalog,
// the same registry compactd job specs go through.
func newProgram(adv string, seed int64, rounds, ell int) (func() sim.Program, bool, error) {
	return catalog.New(adv, catalog.Params{Seed: seed, Rounds: rounds, Ell: ell})
}

// runSeeds repeats a seed-driven workload across seeds 1..n per
// manager and prints aggregate fragmentation statistics.
func runSeeds(ctx context.Context, adv, manager string, m, n, c int64, shards, seeds, rounds, ell int) error {
	cfg := sim.Config{M: m, N: n, C: c, Shards: shards}
	// Resolve pow2 from the adversary kind via a probe construction.
	_, pow2, err := newProgram(adv, 1, rounds, ell)
	if err != nil {
		return err
	}
	cfg.Pow2Only = pow2
	if err := cfg.Validate(); err != nil {
		return err
	}
	seedList := make([]int64, seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}
	managers := []string{manager}
	if manager == "all" {
		managers = mm.Names()
	}
	fmt.Printf("adversary=%s M=%s n=%s c=%d seeds=%d\n", adv, word.Format(m), word.Format(n), c, seeds)
	fmt.Printf("%-20s %10s %10s %10s %10s %s\n", "manager", "mean", "min", "max", "sd", "failures")
	for _, name := range managers {
		agg, _ := sweep.RepeatSeeds(ctx, cfg, name, seedList, func(seed int64) sim.Program {
			mk, _, err := newProgram(adv, seed, rounds, ell)
			if err != nil {
				panic(err) // validated above
			}
			return mk()
		}, 0)
		fmt.Printf("%-20s %9.3fx %9.3fx %9.3fx %10.4f %d\n",
			name, agg.Mean, agg.Min, agg.Max, agg.StdDev, agg.Failures)
		// An interrupted sweep must exit 3, not report the remaining
		// managers as rows of canceled cells and exit 0.
		if ctx.Err() != nil {
			return fmt.Errorf("seeds sweep interrupted: %w", context.Cause(ctx))
		}
	}
	return nil
}

type runOpts struct {
	adv, manager string
	m, n, c      int64
	shards       int
	seed         int64
	rounds, ell  int
	showMap      bool
	check        bool
	checkEvery   int
	replay       string
	obs          obsOpts
}

func run(ctx context.Context, o runOpts) (err error) {
	var makeProg func() sim.Program
	cfg := sim.Config{M: o.m, N: o.n, C: o.c, Shards: o.shards}
	if o.replay != "" {
		tr, err := check.ReadArtifact(o.replay)
		if err != nil {
			return err
		}
		// The recorded parameters define the model the trace is legal
		// under; command-line M/n/c do not apply. -shards is a
		// manager-side knob, not part of the model, so it still does.
		cfg = sim.Config{M: tr.M, N: tr.N, C: tr.C, Shards: o.shards}
		o.adv = "replay:" + tr.Program
		makeProg = func() sim.Program { return trace.NewReplayer(tr) }
	} else {
		mk, pow2, err := newProgram(o.adv, o.seed, o.rounds, o.ell)
		if err != nil {
			return err
		}
		makeProg, cfg.Pow2Only = mk, pow2
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if (o.obs.traceOut != "" || o.obs.seriesOut != "" || o.obs.heatmapOut != "") && o.manager == "all" {
		return fmt.Errorf("-trace-out, -series-out and -heatmap-out record one manager's run; pick a single -manager")
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
	if o.obs.progress || o.obs.metricsAddr != "" {
		reg := obs.NewRegistry()
		metrics = obs.NewSimMetrics(reg)
		tracers = append(tracers, metrics)
		if o.obs.metricsAddr != "" {
			addr, err := obs.Serve(o.obs.metricsAddr, "compactsim", reg)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "compactsim: metrics on http://%s/metrics (expvar /debug/vars, pprof /debug/pprof)\n", addr)
		}
	}
	if o.obs.traceOut != "" {
		sink, closeSink, err := openTraceSink(o.obs.traceOut, o.obs.traceFormat)
		if err != nil {
			return err
		}
		tracers = append(tracers, sink)
		closers = append(closers, closeSink)
	}
	if o.obs.seriesOut != "" {
		f, err := os.Create(o.obs.seriesOut)
		if err != nil {
			return fmt.Errorf("-series-out: %w", err)
		}
		series = &obs.SeriesRecorder{}
		tracers = append(tracers, series)
		m := cfg.M
		closers = append(closers, func() error {
			if err := series.WriteCSV(f, m); err != nil {
				f.Close()
				return fmt.Errorf("-series-out %s: %w", o.obs.seriesOut, err)
			}
			return f.Close()
		})
	}
	var scope *heapscope.Sampler
	if o.obs.heatmapOut != "" {
		f, err := os.Create(o.obs.heatmapOut)
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
				return fmt.Errorf("-heatmap-out %s: %w", o.obs.heatmapOut, err)
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
	names := managerList(o.manager, o.shards)
	var rows []stats.RunRow
	violations := 0
	for _, name := range names {
		mgr, err := newManager(name, o.shards)
		if err != nil {
			return err
		}
		name = mgr.Name() // the sharded wrapper renames, e.g. first-fit → sharded-first-fit
		var ref *check.Referee
		if o.check {
			ref = check.NewReferee(mgr)
			ref.SetSampleEvery(o.checkEvery)
			mgr = ref
		}
		e, err := sim.NewEngine(cfg, makeProg(), mgr)
		if err != nil {
			return err
		}
		if ref != nil {
			e.RoundHook = ref.CheckRound
			e.RoundHookEvery = o.checkEvery
		}
		if scope != nil {
			e.HeapHook = scope.Sample
			if ref == nil {
				// RoundHookEvery is shared with the referee; without one
				// the heatmap picks its stride (or the heapscope default).
				if o.obs.heatmapEvery > 0 {
					e.RoundHookEvery = o.obs.heatmapEvery
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
		if o.obs.progress {
			stopTicker = startProgress(o.adv+" vs "+name, metrics)
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
			return fmt.Errorf("%s vs %s: %w", o.adv, name, err)
		}
		rows = append(rows, stats.RunRow{Manager: name, Result: res})
		if o.showMap {
			fmt.Printf("%-18s %s", name, stats.HeapMap(e.Objects(), e.Extent(), 72))
		}
	}
	// Finalize the sinks: the Chrome epilogue and the series CSV are
	// written here, and a sink that failed mid-run fails the command.
	if err := flushSinks(); err != nil {
		return err
	}
	if o.obs.traceOut != "" {
		fmt.Printf("wrote %s\n", o.obs.traceOut)
	}
	if o.obs.seriesOut != "" {
		fmt.Printf("wrote %s\n", o.obs.seriesOut)
	}
	if o.obs.heatmapOut != "" {
		fmt.Printf("wrote %s\n", o.obs.heatmapOut)
	}
	fmt.Printf("adversary=%s M=%s n=%s c=%d\n", o.adv, word.Format(cfg.M), word.Format(cfg.N), cfg.C)
	fmt.Print(stats.Table(rows))
	printBounds(o.adv, cfg)
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
