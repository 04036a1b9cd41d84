package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"compaction/internal/dist"
	"compaction/internal/faultinject"
	"compaction/internal/mm"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"
)

var flakyRegistered atomic.Bool

// registerFlakyOnce registers a manager whose 2000th allocation of
// every run fails with an injected fault — a few rounds in (the
// workload allocates ~1000 objects in round 0 alone), so the sinks
// have content to lose, while the run still reliably dies.
func registerFlakyOnce(t *testing.T) {
	t.Helper()
	if !flakyRegistered.CompareAndSwap(false, true) {
		return
	}
	mm.Register("flaky-first-fit", func() sim.Manager {
		inner, err := mm.New("first-fit")
		if err != nil {
			panic(err)
		}
		return faultinject.FailAllocAt(inner, 2000)
	})
}

// TestSinksFlushedOnFailure covers the satellite requirement: when a
// run dies mid-flight, -trace-out and -series-out must still be
// finalized — the NDJSON on disk parses line by line and the series
// CSV is complete — before the command exits non-zero.
func TestSinksFlushedOnFailure(t *testing.T) {
	registerFlakyOnce(t)
	dir := t.TempDir()
	ndjson := filepath.Join(dir, "run.ndjson")
	series := filepath.Join(dir, "run.csv")
	err := run(context.Background(), mustParse(t,
		"-adversary", "random", "-manager", "flaky-first-fit",
		"-M", "4Ki", "-n", "32", "-c", "16", "-rounds", "50",
		"-trace-out", ndjson, "-series-out", series))
	if err == nil {
		t.Fatal("injected manager fault did not fail the run")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("failure is not the injected one: %v", err)
	}

	raw, rerr := os.ReadFile(ndjson)
	if rerr != nil {
		t.Fatalf("trace not written despite failure: %v", rerr)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("trace is empty; events before the fault were lost")
	}
	for i, line := range lines {
		var ev map[string]any
		if jerr := json.Unmarshal([]byte(line), &ev); jerr != nil {
			t.Fatalf("ndjson line %d invalid after forced failure: %v", i+1, jerr)
		}
	}

	csv, rerr := os.ReadFile(series)
	if rerr != nil {
		t.Fatalf("series not written despite failure: %v", rerr)
	}
	rows := strings.Split(strings.TrimRight(string(csv), "\n"), "\n")
	if len(rows) < 2 {
		t.Fatalf("series CSV lacks data rows after forced failure:\n%s", csv)
	}
}

// TestExitCodeMapping pins the process status contract: 0 success,
// 1 error, 3 interrupted (2 usage is decided before any run).
func TestExitCodeMapping(t *testing.T) {
	bg := context.Background()
	canceled, cancel := context.WithCancel(bg)
	cancel()
	cases := []struct {
		ctx  context.Context
		err  error
		want int
	}{
		{bg, nil, 0},
		{bg, errors.New("boom"), 1},
		{canceled, errors.New("interrupted"), 3},
		{canceled, nil, 0},
	}
	for i, c := range cases {
		if got := exitCode(c.ctx, c.err); got != c.want {
			t.Errorf("case %d: exitCode = %d, want %d", i, got, c.want)
		}
	}
}

// TestFtFlagValidation: fault-tolerance flags are sweep-only.
func TestFtFlagValidation(t *testing.T) {
	checkModes(t, []modeCase{
		{"no fault-tolerance flags", nil, modeSingle, ""},
		{"checkpoint without sweep", []string{"-checkpoint", "x"}, 0, "-checkpoint"},
		{"cell-timeout without sweep", []string{"-cell-timeout", "1s"}, 0, "-cell-timeout"},
		{"retries without sweep", []string{"-retries", "1"}, 0, "-retries"},
		{"fault tolerance with sweep", []string{"-checkpoint", "x", "-cell-timeout", "1s", "-retries", "2", "-sweep", "8"}, modeSweep, ""},
	})
}

// TestDistFlagValidation: the coordinator needs a -sweep grid, reads
// the in-process sweep's failure policy, and must not be silently
// ignored by the -seeds or -checkpoint modes.
func TestDistFlagValidation(t *testing.T) {
	checkModes(t, []modeCase{
		{"no dist flags", nil, modeSingle, ""},
		{"coordinate", []string{"-coordinate", "127.0.0.1:0", "-sweep", "8"}, modeCoordinate, ""},
		{"coordinate with ledger", []string{"-coordinate", "127.0.0.1:0", "-ledger", "d", "-sweep", "8"}, modeCoordinate, ""},
		{"coordinate without sweep", []string{"-coordinate", "127.0.0.1:0"}, 0, "-coordinate"},
		{"coordinate with seeds", []string{"-coordinate", "127.0.0.1:0", "-sweep", "8", "-seeds", "2"}, 0, "-seeds"},
		{"coordinate with checkpoint", []string{"-coordinate", "127.0.0.1:0", "-sweep", "8", "-checkpoint", "j"}, 0, "-checkpoint"},
		{"ledger without coordinate", []string{"-ledger", "d", "-sweep", "8"}, 0, "-ledger"},
		{"coordinate with the failure policy", []string{"-coordinate", "127.0.0.1:0", "-sweep", "8", "-retries", "2", "-cell-timeout", "1s"}, modeCoordinate, ""},
		// Retries happen where a cell runs; there is no cross-worker
		// failure threshold.
		{"max-failures is not a flag", []string{"-coordinate", "127.0.0.1:0", "-sweep", "8", "-max-failures", "3"}, 0, "-max-failures"},
		// Fault injection is a sweepworker flag.
		{"inject is not a flag", []string{"-inject", "kill-at-cell=1"}, 0, "-inject"},
	})
}

// TestSweepCheckpointResumeCLI is the tentpole acceptance drill at the
// command level: a sweep interrupted mid-grid, resumed via
// -checkpoint with identical flags, produces a CSV byte-identical to
// an uninterrupted run — and the journal is cleaned up on completion.
func TestSweepCheckpointResumeCLI(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-adversary", "random", "-manager", "first-fit", "-M", "4Ki", "-n", "32",
		"-sweep", "8,16,32,64", "-seed", "3", "-rounds", "20",
	}

	// Ground truth: one uninterrupted run.
	cleanPath := filepath.Join(dir, "clean.csv")
	if err := runGrid(context.Background(), mustParse(t, append(base, "-csv", cleanPath)...)); err != nil {
		t.Fatal(err)
	}
	cleanCSV, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the interrupted first invocation: the same grid
	// runGrid builds, canceled after two cells, journaling into the
	// checkpoint file under the params string the journal format has
	// always bound, so a checkpoint written by an older build resumes.
	const params = "adv=random seed=3 rounds=20 ell=0"
	spec := dist.GridSpec{
		Program: "random", Seed: 3, Rounds: 20, M: 1 << 12, N: 1 << 5,
		Cs: []int64{8, 16, 32, 64}, Managers: []string{"first-fit"},
	}
	if got := spec.Params(); got != params {
		t.Fatalf("GridSpec.Params() = %q, want %q: existing checkpoints would stop resuming", got, params)
	}
	ckpt := filepath.Join(dir, "sweep.ckpt")
	cells, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var built atomic.Int32
	for i := range cells {
		inner := cells[i].Program
		cells[i].Program = func() sim.Program {
			if built.Add(1) == 3 {
				cancel()
			}
			return inner()
		}
	}
	j, err := resume.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := sweep.RunOpts(ctx, cells, sweep.Options{
		Parallelism: 1, Journal: j, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Holes(outs)) == 0 || j.Len() == 0 {
		t.Fatalf("interruption not representative: %d holes, %d journaled",
			len(sweep.Holes(outs)), j.Len())
	}

	// The resumed invocation: same flags plus -checkpoint.
	resumedPath := filepath.Join(dir, "resumed.csv")
	if err := runGrid(context.Background(), mustParse(t, append(base, "-csv", resumedPath, "-checkpoint", ckpt)...)); err != nil {
		t.Fatal(err)
	}
	resumedCSV, err := os.ReadFile(resumedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cleanCSV, resumedCSV) {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n--- clean\n%s--- resumed\n%s",
			cleanCSV, resumedCSV)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("completed journal not removed: %v", err)
	}
}

// TestSweepRefusesForeignCheckpoint: resuming under different flags
// must be refused, not silently blended.
func TestSweepRefusesForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	// Populate the journal the way an interrupted run under these flags
	// would have (RunOpts never removes a journal; only a completed
	// runGrid does).
	spec := dist.GridSpec{
		Program: "random", Seed: 3, Rounds: 10, M: 1 << 12, N: 1 << 5,
		Cs: []int64{8, 16}, Managers: []string{"first-fit"},
	}
	cells, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	j, err := resume.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.RunOpts(context.Background(), cells, sweep.Options{
		Parallelism: 1, Journal: j, Params: spec.Params(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("journal not on disk: %v", err)
	}
	// Different seed → different params → refusal.
	o := mustParse(t, "-adversary", "random", "-manager", "first-fit", "-M", "4Ki", "-n", "32",
		"-sweep", "8,16", "-seed", "99", "-rounds", "10", "-checkpoint", ckpt)
	if err := runGrid(context.Background(), o); !errors.Is(err, resume.ErrMismatch) {
		t.Fatalf("foreign checkpoint accepted: %v", err)
	}
}

// TestSweepInterruptedPropagates: a canceled sweep returns an error
// that main maps to exit status 3.
func TestSweepInterruptedPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := mustParse(t, "-adversary", "random", "-manager", "first-fit", "-M", "4Ki", "-n", "32",
		"-sweep", "8,16", "-rounds", "10")
	err := runGrid(ctx, o)
	if err == nil {
		t.Fatal("canceled sweep reported success")
	}
	if got := exitCode(ctx, err); got != 3 {
		t.Fatalf("exit code = %d, want 3", got)
	}
}
