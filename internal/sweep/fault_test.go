package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"compaction/internal/faultinject"
	"compaction/internal/mm"
	"compaction/internal/obs"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/workload"
)

func faultCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		seed := int64(i + 1)
		cells[i] = Cell{
			Label:   fmt.Sprintf("seed=%d", seed),
			Config:  sim.Config{M: 1 << 10, N: 1 << 4, C: 16},
			Manager: "first-fit",
			Program: func() sim.Program {
				return workload.NewRandom(workload.Config{Seed: seed, Rounds: 12})
			},
		}
	}
	return cells
}

// TestPanickingCellIsContained covers the satellite requirement: a
// panicking cell under parallelism 1 and N must become a typed hole
// while every surviving cell completes, with order preserved. CI runs
// this package under -race.
func TestPanickingCellIsContained(t *testing.T) {
	for _, parallelism := range []int{1, 2 * runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
			cells := faultCells(8)
			boom := 3
			inner := cells[boom].Program
			cells[boom].Program = func() sim.Program {
				return faultinject.PanicAt(inner(), 5)
			}
			outs, err := RunOpts(context.Background(), cells, Options{Parallelism: parallelism})
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != len(cells) {
				t.Fatalf("%d outcomes for %d cells", len(outs), len(cells))
			}
			for i, o := range outs {
				if o.Cell.Label != cells[i].Label {
					t.Fatalf("cell order not preserved at %d: %q", i, o.Cell.Label)
				}
				if i == boom {
					var ce *CellError
					if !errors.As(o.Err, &ce) {
						t.Fatalf("panicking cell error is untyped: %v", o.Err)
					}
					if ce.Kind != FailPanic || ce.Index != boom || ce.Attempts != 1 {
						t.Fatalf("cell error misclassified: %+v", ce)
					}
					if !strings.Contains(ce.Error(), "panic") {
						t.Fatalf("error text lacks panic: %v", ce)
					}
					continue
				}
				if o.Err != nil {
					t.Fatalf("surviving cell %d failed: %v", i, o.Err)
				}
			}
			if holes := Holes(outs); len(holes) != 1 || holes[0] != boom {
				t.Fatalf("holes = %v, want [%d]", holes, boom)
			}
		})
	}
}

// TestCellDeadlineBecomesTypedHole: a cell stalled past CellTimeout is
// cut off cooperatively and classified FailDeadline; others finish.
func TestCellDeadlineBecomesTypedHole(t *testing.T) {
	cells := faultCells(4)
	slow := 1
	inner := cells[slow].Program
	cells[slow].Program = func() sim.Program {
		return faultinject.Slow(inner(), 20*time.Millisecond)
	}
	mon := NewMonitor(nil)
	outs, err := RunOpts(context.Background(), cells, Options{
		Parallelism: 2, Monitor: mon, CellTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ce *CellError
	if !errors.As(outs[slow].Err, &ce) || ce.Kind != FailDeadline {
		t.Fatalf("slow cell outcome: %v", outs[slow].Err)
	}
	if !errors.Is(outs[slow].Err, context.DeadlineExceeded) {
		t.Fatalf("deadline cause lost: %v", outs[slow].Err)
	}
	for i, o := range outs {
		if i != slow && o.Err != nil {
			t.Fatalf("fast cell %d failed: %v", i, o.Err)
		}
	}
	if p := mon.Snapshot(); p.Failed != 1 || p.Done != 4 {
		t.Fatalf("monitor: %+v", p)
	}
}

// TestTransientFailureRetriesToSuccess: a cell that panics on its
// first two constructions succeeds on the third attempt; retries are
// counted and traced, and the final outcome is clean.
func TestTransientFailureRetriesToSuccess(t *testing.T) {
	cells := faultCells(3)
	flaky := 1
	inner := cells[flaky].Program
	cells[flaky].Program = faultinject.Transient(inner, 2,
		func(p sim.Program) sim.Program { return faultinject.PanicAt(p, 1) })
	mon := NewMonitor(nil)
	rec := &obs.Recorder{}
	outs, err := RunOpts(context.Background(), cells, Options{
		Parallelism: 2, Monitor: mon, Retries: 3,
		BackoffBase: time.Microsecond, BackoffMax: time.Millisecond,
		Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("cell %d failed despite retries: %v", i, o.Err)
		}
	}
	p := mon.Snapshot()
	if p.Retries != 2 || p.Failed != 0 || p.Done != 3 {
		t.Fatalf("monitor: %+v", p)
	}
	var retries int
	for _, ev := range rec.Events {
		if ev.Kind == obs.EvRetry {
			retries++
			if ev.Cell != flaky {
				t.Fatalf("retry event for wrong cell: %+v", ev)
			}
		}
	}
	if retries != 2 {
		t.Fatalf("retry events = %d, want 2", retries)
	}
}

// TestRetriesExhaustedDegrades: a persistent fault burns its retries
// and the cell degrades into a typed hole with the attempt count, and
// a degraded event is emitted.
func TestRetriesExhaustedDegrades(t *testing.T) {
	cells := faultCells(2)
	inner := cells[0].Program
	cells[0].Program = func() sim.Program { return faultinject.PanicAt(inner(), 0) }
	mon := NewMonitor(nil)
	rec := &obs.Recorder{}
	outs, err := RunOpts(context.Background(), cells, Options{
		Parallelism: 1, Monitor: mon, Retries: 2,
		BackoffBase: time.Microsecond, BackoffMax: time.Millisecond,
		Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ce *CellError
	if !errors.As(outs[0].Err, &ce) || ce.Kind != FailPanic || ce.Attempts != 3 {
		t.Fatalf("outcome: %v", outs[0].Err)
	}
	if outs[1].Err != nil {
		t.Fatalf("healthy cell failed: %v", outs[1].Err)
	}
	var degraded int
	for _, ev := range rec.Events {
		if ev.Kind == obs.EvDegraded {
			degraded++
			if ev.Cell != 0 || ev.Attempt != 3 {
				t.Fatalf("degraded event: %+v", ev)
			}
		}
	}
	if degraded != 1 {
		t.Fatalf("degraded events = %d, want 1", degraded)
	}
	if p := mon.Snapshot(); p.Retries != 2 || p.Failed != 1 {
		t.Fatalf("monitor: %+v", p)
	}
}

// TestInjectedManagerFaultRetries: the transient fault class can also
// live on the manager side (alloc failure); the sweep retries the cell
// and the error chain keeps both ErrInjected and ErrManager when the
// fault is persistent.
func TestInjectedManagerFaultIsTypedThroughSweep(t *testing.T) {
	registerFlakyOnce(t)
	cells := faultCells(2)
	cells[0].Manager = "flaky-first-fit"
	outs, err := RunOpts(context.Background(), cells, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outs[0].Err, faultinject.ErrInjected) || !errors.Is(outs[0].Err, sim.ErrManager) {
		t.Fatalf("typed chain broken: %v", outs[0].Err)
	}
	var ce *CellError
	if !errors.As(outs[0].Err, &ce) || ce.Kind != FailError {
		t.Fatalf("outcome: %v", outs[0].Err)
	}
	if outs[1].Err != nil {
		t.Fatalf("clean cell failed: %v", outs[1].Err)
	}
}

// TestCancellationSkipsRemaining: cancel mid-sweep at parallelism 1;
// cells after the cancellation point are FailSkipped holes and the
// grid keeps its shape.
func TestCancellationSkipsRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := faultCells(6)
	var ran atomic.Int32
	for i := range cells {
		inner := cells[i].Program
		cells[i].Program = func() sim.Program {
			if ran.Add(1) == 3 {
				cancel() // cancel while the 3rd cell constructs
			}
			return inner()
		}
	}
	mon := NewMonitor(nil)
	outs, err := RunOpts(ctx, cells, Options{Parallelism: 1, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 6 {
		t.Fatalf("grid shape lost: %d outcomes", len(outs))
	}
	var skipped, completed int
	for i, o := range outs {
		var ce *CellError
		switch {
		case o.Err == nil:
			completed++
		case errors.As(o.Err, &ce) && (ce.Kind == FailSkipped || ce.Kind == FailCanceled):
			skipped++
			if ce.Kind == FailSkipped && !errors.Is(o.Err, context.Canceled) {
				t.Fatalf("skip cause lost at %d: %v", i, o.Err)
			}
		default:
			t.Fatalf("cell %d: unexpected outcome %v", i, o.Err)
		}
	}
	if completed < 2 || skipped == 0 || completed+skipped != 6 {
		t.Fatalf("completed=%d skipped=%d", completed, skipped)
	}
	if p := mon.Snapshot(); p.Skipped == 0 {
		t.Fatalf("monitor missed skips: %+v", p)
	}
}

// TestCheckpointResumeIsExact is the tentpole acceptance test at
// package level: a sweep killed mid-grid resumes from its journal and
// the final aggregate is byte-identical to an uninterrupted run.
func TestCheckpointResumeIsExact(t *testing.T) {
	mkCells := func() []Cell { return faultCells(10) }

	// Ground truth: uninterrupted run.
	clean, err := RunOpts(context.Background(), mkCells(), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var cleanCSV bytes.Buffer
	if err := WriteCSV(&cleanCSV, clean); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the 4th cell construction.
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, err := resume.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := mkCells()
	var ran atomic.Int32
	for i := range cells {
		inner := cells[i].Program
		cells[i].Program = func() sim.Program {
			if ran.Add(1) == 4 {
				cancel()
			}
			return inner()
		}
	}
	interrupted, err := RunOpts(ctx, cells, Options{Parallelism: 1, Journal: j, Params: "fault-test"})
	if err != nil {
		t.Fatal(err)
	}
	holes := len(Holes(interrupted))
	if holes == 0 {
		t.Fatal("interruption produced no holes; test is vacuous")
	}
	if j.Len() == 0 {
		t.Fatal("no cells journaled before interruption")
	}
	if j.Len()+holes != 10 {
		t.Fatalf("journal holds %d, holes %d, want them to partition 10", j.Len(), holes)
	}

	// Resume with a reloaded journal (as a new process would).
	j2, err := resume.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(nil)
	resumed, err := RunOpts(context.Background(), mkCells(), Options{
		Parallelism: 2, Journal: j2, Params: "fault-test", Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := mon.Snapshot(); p.Restored == 0 || p.Restored != int64(10-holes) {
		t.Fatalf("restored %d cells, want %d", p.Restored, 10-holes)
	}
	restoredCount := 0
	for _, o := range resumed {
		if o.Restored {
			restoredCount++
		}
		if o.Err != nil {
			t.Fatalf("resumed sweep has hole: %v", o.Err)
		}
	}
	if restoredCount != 10-holes {
		t.Fatalf("Restored flags = %d, want %d", restoredCount, 10-holes)
	}
	var resumedCSV bytes.Buffer
	if err := WriteCSV(&resumedCSV, resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cleanCSV.Bytes(), resumedCSV.Bytes()) {
		t.Fatalf("resumed aggregate differs from uninterrupted run:\n--- clean\n%s--- resumed\n%s",
			cleanCSV.String(), resumedCSV.String())
	}
}

// TestJournalMismatchRefused: resuming a journal against a different
// grid is an error, not silent corruption.
func TestJournalMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, _ := resume.Open(path)
	if _, err := RunOpts(context.Background(), faultCells(3), Options{Parallelism: 1, Journal: j, Params: "a"}); err != nil {
		t.Fatal(err)
	}
	j2, err := resume.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOpts(context.Background(), faultCells(4), Options{Parallelism: 1, Journal: j2, Params: "a"}); !errors.Is(err, resume.ErrMismatch) {
		t.Fatalf("mismatched grid accepted: %v", err)
	}
}

// TestFailedCellsAreNotJournaled: only successes are durable; a
// degraded cell re-runs on resume and can then succeed.
func TestFailedCellsAreNotJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, _ := resume.Open(path)
	cells := faultCells(3)
	inner := cells[1].Program
	// Fails in the first sweep, succeeds in the second: the closure
	// counts constructions across RunOpts calls.
	cells[1].Program = faultinject.Transient(inner, 1,
		func(p sim.Program) sim.Program { return faultinject.PanicAt(p, 0) })
	outs, err := RunOpts(context.Background(), cells, Options{Parallelism: 1, Journal: j, Params: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if outs[1].Err == nil {
		t.Fatal("fault did not fire")
	}
	if j.Len() != 2 {
		t.Fatalf("journal holds %d entries, want 2 (failures must not be journaled)", j.Len())
	}
	outs, err = RunOpts(context.Background(), cells, Options{Parallelism: 1, Journal: j, Params: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if outs[1].Err != nil {
		t.Fatalf("re-run of failed cell still failing: %v", outs[1].Err)
	}
	if !outs[0].Restored || !outs[2].Restored || outs[1].Restored {
		t.Fatalf("restored flags wrong: %v %v %v", outs[0].Restored, outs[1].Restored, outs[2].Restored)
	}
	if j.Len() != 3 {
		t.Fatalf("journal holds %d entries after resume, want 3", j.Len())
	}
}

// TestCheckpointEventsAndGauges: checkpoints are observable.
func TestCheckpointEventsAndGauges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, _ := resume.Open(path)
	mon := NewMonitor(nil)
	rec := &obs.Recorder{}
	if _, err := RunOpts(context.Background(), faultCells(4), Options{
		Parallelism: 2, Journal: j, Monitor: mon, Tracer: rec,
	}); err != nil {
		t.Fatal(err)
	}
	if p := mon.Snapshot(); p.Checkpoints != 4 {
		t.Fatalf("checkpoint gauge = %d, want 4", p.Checkpoints)
	}
	var evs int
	maxCompleted := int64(0)
	for _, ev := range rec.Events {
		if ev.Kind == obs.EvCheckpoint {
			evs++
			if ev.Count > maxCompleted {
				maxCompleted = ev.Count
			}
		}
	}
	if evs != 4 || maxCompleted != 4 {
		t.Fatalf("checkpoint events = %d (max completed %d), want 4/4", evs, maxCompleted)
	}
}

// TestCheckpointFailureDegrades: a journal that cannot be written —
// here its directory does not exist — disables checkpointing without
// stopping the sweep. Every cell still completes, RunOpts reports the
// write failure, and nothing claims a checkpoint happened.
func TestCheckpointFailureDegrades(t *testing.T) {
	j, err := resume.Open(filepath.Join(t.TempDir(), "missing", "sweep.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(nil)
	rec := &obs.Recorder{}
	outs, err := RunOpts(context.Background(), faultCells(4), Options{
		Parallelism: 2, Journal: j, Monitor: mon, Tracer: rec,
	})
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "checkpointing disabled") {
		t.Fatalf("RunOpts err = %v, want checkpointing disabled wrapping the write failure", err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("cell %d did not complete: %v", i, o.Err)
		}
	}
	if p := mon.Snapshot(); p.Checkpoints != 0 || p.Done != 4 {
		t.Fatalf("progress = %+v, want 4 cells done and 0 checkpoints", p)
	}
	for _, ev := range rec.Events {
		if ev.Kind == obs.EvCheckpoint {
			t.Fatalf("checkpoint event emitted for cell %d", ev.Cell)
		}
	}
}

// TestBackoffDeterministicJitter: equal seeds back off identically,
// different seeds differ somewhere.
func TestBackoffJitterIsSeeded(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		s := &scheduler{o: Options{BackoffBase: 10 * time.Millisecond, BackoffMax: time.Second, Seed: seed}}
		var ds []time.Duration
		for cell := 0; cell < 4; cell++ {
			for attempt := 1; attempt <= 3; attempt++ {
				ds = append(ds, s.backoffDelay(cell, attempt))
			}
		}
		return ds
	}
	a, b, c := delays(1), delays(1), delays(2)
	same12, same13 := true, true
	for i := range a {
		if a[i] != b[i] {
			same12 = false
		}
		if a[i] != c[i] {
			same13 = false
		}
		base := 10 * time.Millisecond << (i % 3)
		if a[i] < base || a[i] > base+base/2 {
			t.Fatalf("delay %d = %v outside [base, 1.5·base] for base %v", i, a[i], base)
		}
	}
	if !same12 {
		t.Fatal("equal seeds produced different backoff")
	}
	if same13 {
		t.Fatal("different seeds produced identical backoff")
	}
}

// TestTickerGoroutineDoesNotLeak covers the satellite: the progress
// ticker goroutine must terminate when stopped, including after a
// sweep that returned early, and stop must be idempotent.
func TestTickerGoroutineDoesNotLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		mon := NewMonitor(nil)
		var sink bytes.Buffer
		stop := mon.StartTicker(&sink, time.Millisecond)
		// A canceled sweep returns early; the ticker must still stop.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := RunOpts(ctx, faultCells(3), Options{Parallelism: 2, Monitor: mon}); err != nil {
			t.Fatal(err)
		}
		stop()
		stop() // idempotent
	}
	// The tickers block their goroutine exit on stop(), so any leak is
	// deterministic — but give the runtime a moment to reap stacks.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
	// A nil monitor hands back a no-op stop.
	var nilMon *Monitor
	nilMon.StartTicker(&bytes.Buffer{}, time.Millisecond)()
}

var flakyRegistered atomic.Bool

// registerFlakyOnce registers a manager whose 3rd allocation of every
// run fails with an injected fault. Registration is global and
// panics on duplicates, hence the guard.
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
		return faultinject.FailAllocAt(inner, 3)
	})
}
