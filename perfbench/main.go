// Command perfbench is the repository benchmark. It runs one workload
// for a fixed wall-clock budget, checks the outputs for correctness
// outside the timed region, and prints every metric by name and unit,
// ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// decorators beyond a clock read per cell or job. With --trace 1 the
// passes alternate between untraced and traced, and the metrics are
// the per-layer ones, measured from the benchmark's own wrappers
// around each layer's public API (see README.md).
//
//	perfbench --workload pf-refereed --seed 1 --seconds 10 --trace 0
//	perfbench compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// workDir is where runs put their scratch directories and result
// files, relative to the checkout root the benchmark runs from.
const workDir = ".bench_build"

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload run's outcome.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	spans             []span
	hists             map[string]durStat
	notes             []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, hists: map[string]durStat{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one correctness check, failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.notef("FAILED: "+format, args...)
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	budget  time.Duration
	trace   bool
	scratch string // a private directory under workDir
	procs   int
}

// workloads maps each name to its runner. The names and metric sets
// are the contract BENCHMARK.json declares.
var workloads = map[string]func(context.Context, runConfig) (*report, error){
	"pf-refereed": func(ctx context.Context, rc runConfig) (*report, error) { return runPFWorkload(ctx, rc, pfDefault) },
	"churn-grid": func(ctx context.Context, rc runConfig) (*report, error) {
		return runGridWorkload(ctx, rc, gridDefault, false)
	},
	"dist-grid": func(ctx context.Context, rc runConfig) (*report, error) {
		return runGridWorkload(ctx, rc, gridDefault, true)
	},
	"compactd-jobs": func(ctx context.Context, rc runConfig) (*report, error) { return runJobsWorkload(ctx, rc, jobsDefault) },
}

// declared is a metric BENCHMARK.json lists, with its unit.
type declared struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0. Timings
// are CPU time, not wall clock: on a shared virtual machine the wall
// clock includes whatever the hypervisor gives other guests, which
// swings run to run by more than any bound worth gating on. The
// per-cell figure is user CPU time only: system time here is mostly the
// kernel faulting in the Go heap, whose cost on a virtual machine
// follows the host's memory state and swings twofold over minutes. The
// total CPU and the wall clock figures (cpu_ms_per_cell, wall_s,
// cells_per_s, run_s.*, job_p50_ms, job_p95_ms) are printed beside
// them and saved in the result file, ungated.
var e2eMetrics = []declared{
	{"setup_s", "s"}, {"user_cpu_ms_per_cell", "ms"},
	{"peak_rss_mb", "MB"}, {"rss_bytes_per_live_word", "B"},
}

// layerMetrics are reported by every workload with --trace 1; a layer
// the workload does not exercise reads 0.
var layerMetrics = func() []declared {
	var ds []declared
	for _, m := range pfDefault.Managers {
		ds = append(ds, declared{"run_cpu_s." + m, "s"}, declared{"mm.alloc_calls." + m, "count"}, declared{"mm.alloc_self_s." + m, "s"},
			declared{"mm.free_s." + m, "s"}, declared{"mm.startround_s." + m, "s"},
			declared{"mm.moves." + m, "count"}, declared{"mm.moved_words." + m, "words"})
	}
	return append(ds, []declared{
		{"heap.replay_ops", "count"}, {"heap.ns_per_op", "ns"}, {"heap.free_intervals_max", "count"},
		{"sim.rounds", "count"}, {"sim.run_s", "s"}, {"sim.self_s", "s"},
		{"core.step_s", "s"}, {"core.callback_s", "s"},
		{"check.self_s", "s"}, {"check.round_hook_s", "s"}, {"mem.go_heap_bytes_per_live_word", "B"},
		{"sweep.cell_run_ms_p50", "ms"}, {"sweep.overhead_ms_per_cell", "ms"},
		{"sweep.overhead_growth", "ratio"}, {"sweep.write_bytes_per_cell", "B"},
		{"dist.claim_ms_p50", "ms"}, {"dist.claim_ms_p99", "ms"},
		{"dist.commit_ms_p50", "ms"}, {"dist.commit_ms_p99", "ms"},
		{"dist.calls_per_cell", "count"}, {"dist.empty_claims", "count"},
		{"dist.cell_run_ms_p50", "ms"}, {"dist.write_bytes_per_cell", "B"},
		{"dist.reassigned", "count"}, {"dist.fenced", "count"},
		{"service.submit_ms_p50", "ms"}, {"service.submit_ms_p95", "ms"},
		{"service.queue_ms_p50", "ms"}, {"service.run_ms_p50", "ms"}, {"service.result_ms_p50", "ms"},
		{"service.job_p50_ms", "ms"}, {"service.job_p95_ms", "ms"},
		{"service.first_event_p50_ms", "ms"}, {"service.first_event_p95_ms", "ms"},
		{"service.jobs_per_s", "jobs/s"}, {"service.rejected", "count"},
		{"service.write_bytes_per_job", "B"},
		{"proc.cpu_s", "s"}, {"proc.gc_cycles", "count"}, {"proc.gc_pause_ms", "ms"},
		{"proc.alloc_mb", "MB"}, {"trace.overhead", "ratio"}, {"trace.reconcile", "ratio"},
	}...)
}()

// declaredMetrics picks the mode's declared metrics out of a report.
// A per-layer metric the workload does not exercise reads 0; a missing
// end-to-end metric is an error.
func declaredMetrics(rep *report, trace bool) (map[string]metric, error) {
	ds := e2eMetrics
	if trace {
		ds = layerMetrics
	}
	out := make(map[string]metric, len(ds))
	for _, d := range ds {
		m, ok := rep.metrics[d.name]
		switch {
		case ok && m.Unit != d.unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		case !ok && !trace:
			return nil, fmt.Errorf("end-to-end metric %s not measured", d.name)
		case !ok:
			m = metric{0, d.unit}
		}
		out[d.name] = m
	}
	return out, nil
}

// hostTags identify where and from what a result was measured.
type hostTags struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
}

func currentTags(workload string, seed int64, trace bool) hostTags {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return hostTags{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), Revision: rev,
		Workload: workload, Seed: seed, Trace: trace,
	}
}

// resultFile is the saved form of a run, what compare reads.
type resultFile struct {
	Tags      hostTags          `json:"tags"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced passes and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	scratch := filepath.Join(workDir, "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	tags := currentTags(*name, *seed, *trace == 1)
	rc := runConfig{
		seed: *seed, budget: time.Duration(*secs * float64(time.Second)),
		trace: *trace == 1, scratch: scratch, procs: runtime.NumCPU(),
	}
	rep, err := fn(context.Background(), rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	fmt.Fprintf(stdout, "# %s seed=%d trace=%t nproc=%d gomaxprocs=%d go=%s rev=%s cpu=%q\n",
		tags.Workload, tags.Seed, tags.Trace, tags.Nproc, tags.GOMAXPROCS, tags.GoVersion, tags.Revision, tags.CPU)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "%-40s %14.6g ratio (%d failed of %d attempted)\n", "failed_frac",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)

	out, err := declaredMetrics(rep, rc.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	// The result file keeps every measured figure, the JSON line only
	// the declared ones.
	res := resultFile{Tags: tags, Correct: rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	if err := saveResult(res, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: saving result: %v\n", err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// saveResult writes the tagged result, and for traced runs the spans
// and histograms, under workDir/results.
func saveResult(res resultFile, rep *report) error {
	dir := filepath.Join(workDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", res.Tags.Workload, res.Tags.Seed, btoi(res.Tags.Trace))
	if err := writeJSON(filepath.Join(dir, base+".json"), res); err != nil {
		return err
	}
	if !res.Tags.Trace {
		return nil
	}
	return writeJSON(filepath.Join(dir, base+".spans.json"), struct {
		Spans []span             `json:"spans"`
		Hists map[string]durStat `json:"histograms_log2_ns"`
	}{rep.spans, rep.hists})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compare prints b's metrics against a's, refusing results measured on
// hosts with different CPU counts.
func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <a.json> <b.json>")
		return 2
	}
	var rs [2]resultFile
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 1
		}
	}
	a, b := rs[0], rs[1]
	if a.Tags.Nproc != b.Tags.Nproc || a.Tags.GOMAXPROCS != b.Tags.GOMAXPROCS {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: nproc/GOMAXPROCS %d/%d vs %d/%d\n",
			a.Tags.Nproc, a.Tags.GOMAXPROCS, b.Tags.Nproc, b.Tags.GOMAXPROCS)
		return 1
	}
	if a.Tags.Workload != b.Tags.Workload || a.Tags.Trace != b.Tags.Trace {
		fmt.Fprintf(stderr, "perfbench: refusing to compare %s (trace=%t) with %s (trace=%t)\n",
			a.Tags.Workload, a.Tags.Trace, b.Tags.Workload, b.Tags.Trace)
		return 1
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s: %s (seed %d) vs %s (seed %d)\n", a.Tags.Workload,
		a.Tags.Revision, a.Tags.Seed, b.Tags.Revision, b.Tags.Seed)
	for _, n := range names {
		av, bm := a.Metrics[n], b.Metrics[n]
		ratio := "-"
		if av.Value != 0 {
			ratio = strconv.FormatFloat(bm.Value/av.Value, 'f', 3, 64)
		}
		fmt.Fprintf(stdout, "%-40s %14.6g %14.6g %8s %s\n", n, av.Value, bm.Value, ratio, av.Unit)
	}
	return 0
}

// passLoop runs pass until the budget is spent, at least once, or
// twice in trace mode, where passes alternate untraced, traced,
// untraced, ... so both kinds see the same machine conditions.
//
// Without tracing it also times setup: setupPerPass batches before
// every pass, topped up after the last to setupReps, and returns the
// medians. On a shared virtual machine a set-up runs several times
// slower for seconds at a time, so batches timed in one stretch can
// all land in such a window; spread over the run, they mostly do not.
// In trace mode it returns zero set-up times.
func passLoop(rc runConfig, setup func() (teardown func(), err error), pass func(i int, traced bool) error) (setupTimes, error) {
	min := 1
	if rc.trace {
		min = 2
	}
	var st setupSamples
	start := time.Now()
	for i := 0; i < min || time.Since(start) < rc.budget; i++ {
		if !rc.trace {
			if err := st.time(setupPerPass, setup); err != nil {
				return setupTimes{}, err
			}
		}
		if err := pass(i, rc.trace && i%2 == 1); err != nil {
			return setupTimes{}, err
		}
	}
	if rc.trace {
		return setupTimes{}, nil
	}
	if err := st.time(setupReps-len(st.cpus), setup); err != nil {
		return setupTimes{}, err
	}
	return setupTimes{median(st.cpus), median(st.walls)}, nil
}

// setupTimes are a workload's set-up figures in seconds: the medians
// of process CPU time and of wall time.
type setupTimes struct{ cpu, wall float64 }

// setupSamples are per-batch mean set-up times in seconds.
type setupSamples struct{ cpus, walls []float64 }

// time times n batches of setup+teardown, after a collection so the
// garbage of the pass before does not land in them. Teardown is not
// timed. A batch repeats the set-up until its repetitions span
// setupBatch of wall time, and its sample is their mean, so clock,
// scheduling and page-fault jitter of a few microseconds does not
// decide the figure.
func (s *setupSamples) time(n int, setup func() (teardown func(), err error)) error {
	if n <= 0 {
		return nil
	}
	runtime.GC()
	for i := 0; i < n; i++ {
		var sumCPU, sumWall time.Duration
		k := 0
		for k == 0 || sumWall < setupBatch {
			c0, t0 := procCPU(), time.Now()
			td, err := setup()
			sumWall += time.Since(t0)
			sumCPU += procCPU() - c0
			if err != nil {
				return err
			}
			td()
			k++
		}
		s.cpus = append(s.cpus, seconds(sumCPU)/float64(k))
		s.walls = append(s.walls, seconds(sumWall)/float64(k))
	}
	return nil
}

// setCPUMetrics sets the CPU-time figures every workload reports with
// --trace 0: set-up, and the medians over passes of the total and the
// user CPU time per cell. Of these setup_s and user_cpu_ms_per_cell are
// gated. Set-up is total CPU time: the kernel splits a thread's time
// into user and system time by sampling it at each clock tick, which
// leaves the user part of a sub-millisecond set-up at 0 or a tick.
func setCPUMetrics(rep *report, setup setupTimes, passCPU, passUser []float64, cellsPerPass int) {
	perCell := 1e3 / float64(cellsPerPass)
	rep.notef("user CPU per pass (s): %.3f", passUser)
	rep.set("setup_s", setup.cpu, "s")
	rep.set("setup_wall_s", setup.wall, "s")
	rep.set("cpu_s", median(passCPU), "s")
	rep.set("cpu_ms_per_cell", median(passCPU)*perCell, "ms")
	rep.set("user_cpu_ms_per_cell", median(passUser)*perCell, "ms")
}

// setupReps is the least number of set-up batches a run times for
// setup_s, setupPerPass how many it times before each pass, and
// setupBatch the least wall time one batch spans.
const (
	setupReps    = 21
	setupPerPass = 3
	setupBatch   = 20 * time.Millisecond
)
