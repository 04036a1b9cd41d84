package dist

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"compaction/internal/obs"
	"compaction/internal/sim"
	"compaction/internal/sweep"
)

// Hooks are the worker's fault-injection points, shaped to match
// faultinject.WorkerHooks without importing it. All fields optional.
type Hooks struct {
	// AfterClaim runs once a lease is granted, before the cell runs.
	AfterClaim func(cell int)
	// BeforeCommit runs after the cell succeeded, before the commit is
	// delivered.
	BeforeCommit func(cell int)
	// CommitCopies decides how many times the commit is delivered
	// (nil or < 1 means once).
	CommitCopies func(cell int) int
}

// WorkerOptions configures a worker loop.
type WorkerOptions struct {
	// ID names the worker in leases and the alive set. Required.
	ID string
	// Hooks inject process-level faults for drills and tests.
	Hooks Hooks
	// Logf, if non-nil, receives progress lines (claimed, committed,
	// fenced, draining).
	Logf func(format string, args ...any)
}

const (
	// backoffBase and backoffMax shape the claim-poll backoff when the
	// grid has nothing claimable, and the transport-error retry
	// backoff: doubling from base, capped at max.
	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
	// maxErrors is how many consecutive transport or protocol errors
	// the worker tolerates (with backoff) before concluding the
	// coordinator is gone.
	maxErrors = 10
)

// Worker pulls leases from a coordinator and runs them through the
// sweep machinery, one cell at a time, under the failure policy each
// grant carries, heartbeating each lease while the cell runs.
type Worker struct {
	conn Conn
	o    WorkerOptions
}

// NewWorker builds a worker over the transport.
func NewWorker(conn Conn, o WorkerOptions) *Worker {
	return &Worker{conn: conn, o: o}
}

// logf emits a progress line when a logger is configured.
func (w *Worker) logf(format string, args ...any) {
	if w.o.Logf != nil {
		w.o.Logf(format, args...)
	}
}

// Run pulls and runs leases until the coordinator reports the grid
// settled, claimCtx is canceled (graceful drain: the in-flight cell
// finishes and commits, then the worker says goodbye), or runCtx is
// canceled (hard stop: the in-flight cell is abandoned and its lease
// released). It returns nil on done/drain, runCtx's cause on a hard
// stop, and an error when the coordinator stays unreachable past the
// retry budget.
func (w *Worker) Run(runCtx, claimCtx context.Context) error {
	errs := 0
	delay := backoffBase
	for {
		if runCtx.Err() != nil {
			w.farewell(runCtx)
			return fmt.Errorf("dist: %w", context.Cause(runCtx))
		}
		if claimCtx.Err() != nil {
			w.logf("worker %s: drained", w.o.ID)
			w.farewell(runCtx)
			return nil
		}
		resp, err := w.conn.Call(claimCtx, Request{Op: "claim", Worker: w.o.ID})
		if err != nil || resp.Error != "" {
			if claimCtx.Err() != nil {
				continue // drain or stop raced the call; resolve at the top
			}
			if err == nil {
				err = fmt.Errorf("dist: coordinator refused: %s", resp.Error)
			}
			errs++
			if errs >= maxErrors {
				return fmt.Errorf("dist: giving up after %d consecutive claim failures: %w", errs, err)
			}
			delay = w.sleep(runCtx, delay)
			continue
		}
		errs = 0
		if resp.Done {
			w.logf("worker %s: grid settled", w.o.ID)
			w.farewell(runCtx)
			return nil
		}
		if resp.Task == nil {
			// Every unsettled cell is leased elsewhere: poll again after
			// a backoff (the polling also drives coordinator-side lease
			// expiry, so an idle worker is what rescues a hung one).
			delay = w.sleep(runCtx, delay)
			continue
		}
		delay = backoffBase
		if err := w.runTask(runCtx, resp); err != nil {
			return err
		}
	}
}

// sleep waits the current backoff (or until runCtx cancels) and
// returns the next, doubled and capped, delay.
func (w *Worker) sleep(runCtx context.Context, delay time.Duration) time.Duration {
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-runCtx.Done():
	case <-t.C:
	}
	delay *= 2
	if delay > backoffMax {
		delay = backoffMax
	}
	return delay
}

// runTask runs one granted lease to its protocol conclusion: commit,
// fail (the cell is a hole after the grant's retries), release (hard
// stop), or silent abandonment (lease fenced away mid-run). Only a
// hard stop or a dead coordinator returns an error.
func (w *Worker) runTask(runCtx context.Context, grant Response) error {
	task := *grant.Task
	w.logf("worker %s: claimed cell %d (%s vs %s, token %d)",
		w.o.ID, task.Cell, task.Label, task.Manager, grant.Token)
	if w.o.Hooks.AfterClaim != nil {
		w.o.Hooks.AfterClaim(task.Cell)
	}

	// Heartbeat the lease while the cell runs. A fenced renewal means
	// the lease expired and was reassigned: cancel the attempt and
	// abandon the work (the new holder owns the cell now).
	cellCtx, cancelCell := context.WithCancel(runCtx)
	defer cancelCell()
	var fenced atomic.Bool
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	ttl := time.Duration(grant.TTLMillis) * time.Millisecond
	interval := ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go func() {
		defer close(hbDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-cellCtx.Done():
				return
			case <-t.C:
				resp, err := w.conn.Call(cellCtx, Request{
					Op: "renew", Worker: w.o.ID, Cell: task.Cell, Token: grant.Token,
				})
				if err == nil && resp.Fenced {
					w.logf("worker %s: lease on cell %d fenced away; abandoning", w.o.ID, task.Cell)
					fenced.Store(true)
					cancelCell()
					return
				}
				// Transport errors here are not fatal: the run continues
				// and the commit (which retries) decides.
			}
		}
	}()

	// The heartbeat runs until RunOpts returns, so it covers the
	// retries and their backoff. The backoff jitter is seeded as
	// compactsim seeds it in process.
	var (
		out     sweep.Outcome
		hole    *sweep.CellError
		retried retryCount
	)
	cell, err := task.MakeCell()
	if err != nil {
		hole = &sweep.CellError{Kind: sweep.FailError, Err: err}
	} else {
		outs, _ := sweep.RunOpts(cellCtx, []sweep.Cell{cell}, sweep.Options{
			Parallelism: 1, Tracer: &retried, Seed: task.Seed,
			Retries: grant.Retries, CellTimeout: grant.CellTimeout,
		})
		out = outs[0]
		errors.As(out.Err, &hole)
	}
	close(hbStop)
	<-hbDone

	switch {
	case fenced.Load():
		return nil
	case runCtx.Err() != nil:
		// Hard stop mid-cell: hand the lease back so the cell is
		// immediately claimable, then report the interruption.
		w.release(runCtx, task, grant.Token)
		return fmt.Errorf("dist: %w", context.Cause(runCtx))
	case hole != nil:
		// The cause goes unwrapped: the coordinator rebuilds the hole
		// under the cell's grid index, not this one-cell sweep's.
		w.logf("worker %s: cell %d %s after %d attempt(s): %v", w.o.ID, task.Cell, hole.Kind, hole.Attempts, hole.Err)
		resp, err := w.conn.Call(runCtx, Request{
			Op: "fail", Worker: w.o.ID, Cell: task.Cell, Token: grant.Token,
			Kind: hole.Kind, Attempts: hole.Attempts, Reason: hole.Err.Error(),
		})
		if err == nil && resp.Fenced {
			w.logf("worker %s: failure report for cell %d fenced (lease reassigned)", w.o.ID, task.Cell)
		}
		return nil
	}

	if w.o.Hooks.BeforeCommit != nil {
		w.o.Hooks.BeforeCommit(task.Cell)
	}
	copies := 1
	if w.o.Hooks.CommitCopies != nil {
		if n := w.o.Hooks.CommitCopies(task.Cell); n > copies {
			copies = n
		}
	}
	for i := 0; i < copies; i++ {
		if err := w.commit(runCtx, task, grant.Token, out.Result, 1+int(retried)); err != nil {
			return err
		}
	}
	return nil
}

// retryCount counts the sweep's retry events: the attempts a cell
// spent beyond its first.
type retryCount int

func (r *retryCount) Emit(ev obs.Event) {
	if ev.Kind == obs.EvRetry {
		*r++
	}
}

// commit delivers one commit, retrying transport errors with backoff:
// commits are fenced server-side, so re-delivery is always safe.
func (w *Worker) commit(runCtx context.Context, task Task, token uint64, res sim.Result, attempts int) error {
	delay := backoffBase
	for attempt := 1; ; attempt++ {
		resp, err := w.conn.Call(runCtx, Request{
			Op: "commit", Worker: w.o.ID, Cell: task.Cell, Token: token,
			Result: &res, Attempts: attempts,
		})
		if err != nil {
			if runCtx.Err() != nil {
				return fmt.Errorf("dist: %w", context.Cause(runCtx))
			}
			if attempt >= maxErrors {
				return fmt.Errorf("dist: commit for cell %d undeliverable after %d attempts: %w", task.Cell, attempt, err)
			}
			delay = w.sleep(runCtx, delay)
			continue
		}
		if resp.Fenced {
			w.logf("worker %s: commit for cell %d fenced (stale or duplicate)", w.o.ID, task.Cell)
		} else if resp.OK {
			w.logf("worker %s: committed cell %d", w.o.ID, task.Cell)
		}
		return nil
	}
}

// release hands a lease back on a hard stop, best-effort: the calling
// context is already canceled, so the farewell rides a short detached
// deadline. An undeliverable release is fine — the lease expires.
func (w *Worker) release(runCtx context.Context, task Task, token uint64) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(runCtx), 2*time.Second)
	defer cancel()
	_, _ = w.conn.Call(ctx, Request{Op: "release", Worker: w.o.ID, Cell: task.Cell, Token: token})
}

// farewell tells the coordinator this worker is leaving, best-effort
// and on a short detached deadline (runCtx may already be canceled).
func (w *Worker) farewell(runCtx context.Context) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(runCtx), 2*time.Second)
	defer cancel()
	_, _ = w.conn.Call(ctx, Request{Op: "goodbye", Worker: w.o.ID})
}
