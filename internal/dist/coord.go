package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"
)

// cellState is a cell's position in the lease lifecycle.
type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
	cellFailed // settled as a hole
)

// leaseInfo is the live lease on a cellLeased cell.
type leaseInfo struct {
	worker  string
	token   uint64
	expires time.Time
}

// Options configures a Coordinator. The zero value selects sane drill
// defaults.
type Options struct {
	// LeaseTTL is the heartbeat timeout: a lease not renewed within it
	// expires and its cell becomes claimable again. Default 10s.
	LeaseTTL time.Duration
	// Retries and CellTimeout are the grid's failure policy, with the
	// meaning of the sweep.Options fields of the same names. Every
	// grant carries them, and the worker runs its cell under them, so
	// a cell fails the same way on any worker and in process. A cell
	// still failing after its retries settles as the hole the worker
	// reports; it is not leased again.
	Retries     int
	CellTimeout time.Duration
	// Params is the program-identity string bound into the ledger
	// header (GridSpec.Params for grids built from a spec).
	Params string
	// Monitor, if non-nil, observes progress: cells done/failed,
	// restored from the ledger, workers alive, leases reassigned,
	// commits fenced.
	Monitor *sweep.Monitor
	// Now is the clock seam; nil selects time.Now. Tests drive lease
	// expiry through it deterministically.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.Now == nil {
		// Lease expiry is wall-clock by design: it measures real worker
		// silence, never anything that reaches a result.
		o.Now = time.Now //compactlint:allow determinism lease expiry measures wall-clock worker silence, not simulation state
	}
	return o
}

// Coordinator shards a grid's cells into fenced leases and merges the
// committed results. It is safe for concurrent use by any number of
// transport goroutines.
type Coordinator struct {
	tasks []Task
	fps   []string
	o     Options

	mu       sync.Mutex           //compactlint:lockrank 10
	state    []cellState          //compactlint:guardedby mu
	lease    []leaseInfo          //compactlint:guardedby mu
	results  []sim.Result         //compactlint:guardedby mu
	holes    []*sweep.CellError   //compactlint:guardedby mu — the cellFailed cells' holes
	restored []bool               //compactlint:guardedby mu
	next     uint64               //compactlint:guardedby mu — last issued fencing token
	settled  int                  //compactlint:guardedby mu — cells done or failed
	workers  map[string]time.Time //compactlint:guardedby mu
	ledger   *resume.Ledger       //compactlint:guardedby mu
	infraErr error                //compactlint:guardedby mu — first non-fencing ledger failure (degraded mode)
	fenced   bool                 //compactlint:guardedby mu — a newer coordinator epoch owns the ledger

	done   chan struct{} // closed when every cell settled
	failed chan struct{} // closed when the coordinator is fenced
}

// NewCoordinator builds a coordinator over the tasks, bound to the
// ledger (nil disables durability — useful in-process). A non-empty
// ledger must belong to this exact grid; its commits are adopted so a
// restarted coordinator resumes where its predecessor stopped (its
// holes run again). Its tokens start above ledger.Epoch()<<32: a
// successor holds a higher epoch, so no new lease reuses a token a
// predecessor issued.
func NewCoordinator(tasks []Task, ledger *resume.Ledger, o Options) (*Coordinator, error) {
	o = o.withDefaults()
	c := &Coordinator{
		tasks:    tasks,
		fps:      make([]string, len(tasks)),
		o:        o,
		state:    make([]cellState, len(tasks)),
		lease:    make([]leaseInfo, len(tasks)),
		results:  make([]sim.Result, len(tasks)),
		holes:    make([]*sweep.CellError, len(tasks)),
		restored: make([]bool, len(tasks)),
		workers:  make(map[string]time.Time),
		ledger:   ledger,
		done:     make(chan struct{}),
		failed:   make(chan struct{}),
	}
	for i, t := range tasks {
		c.fps[i] = resume.Fingerprint(resume.CellKey{
			Index: i, Label: t.Label, Manager: t.Manager, Config: t.Config,
		})
	}
	c.o.Monitor.Begin(len(tasks), 0)
	if ledger != nil {
		if err := ledger.Bind(resume.GridFingerprint(c.fps), len(tasks), o.Params); err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		c.next = ledger.Epoch() << 32
		for i, fp := range c.fps {
			if res, ok := ledger.Lookup(fp); ok {
				c.state[i] = cellDone
				c.results[i] = res
				c.restored[i] = true
				c.settled++
				c.o.Monitor.CellRestored()
			}
		}
	}
	if c.settled == len(tasks) {
		close(c.done)
	}
	return c, nil
}

// Restored returns how many cells were adopted from the ledger.
func (c *Coordinator) Restored() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.restored {
		if r {
			n++
		}
	}
	return n
}

// superseded is the claim answer of a coordinator fenced by a
// successor: it cannot grant leases, and the worker gives up on it.
const superseded = "coordinator fenced by a successor"

// Claim leases the lowest-index claimable cell to the worker and
// returns the answer the worker receives: a grant (the task, its
// fencing token, the lease TTL and the grid's failure policy), Done
// once every cell is settled, an empty OK when every unsettled cell is
// leased (poll again after a backoff), or an Error when the
// coordinator has been fenced. Expired leases are reclaimed first, so
// claims are also the engine that detects dead and hung workers: as
// long as any worker polls, every expired lease is reassigned.
func (c *Coordinator) Claim(worker string) Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.o.Now()
	c.touchLocked(worker, now)
	c.expireLocked(now)
	if c.fencedLocked() {
		return Response{Error: superseded}
	}
	if c.settled == len(c.tasks) {
		return Response{OK: true, Done: true}
	}
	for i, st := range c.state {
		if st != cellPending {
			continue
		}
		c.next++
		token := c.next
		c.state[i] = cellLeased
		c.lease[i] = leaseInfo{worker: worker, token: token, expires: now.Add(c.o.LeaseTTL)}
		t := c.tasks[i]
		return Response{
			OK: true, Task: &t, Token: token, TTLMillis: c.o.LeaseTTL.Milliseconds(),
			Retries: c.o.Retries, CellTimeout: c.o.CellTimeout,
		}
	}
	return Response{OK: true}
}

// Renew extends the worker's lease. ErrFenced means the lease is no
// longer the worker's — it expired and was (or will be) reassigned —
// and the worker must abandon the cell. Leases live in memory only: a
// restarted coordinator leases every uncommitted cell afresh.
func (c *Coordinator) Renew(worker string, cell int, token uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.o.Now()
	c.touchLocked(worker, now)
	c.expireLocked(now)
	if err := c.checkLeaseLocked(worker, cell, token); err != nil {
		return err
	}
	c.lease[cell].expires = now.Add(c.o.LeaseTTL)
	return nil
}

// Commit settles a cell with its result, which the worker's sweep
// reached in the given number of attempts, and records it in the
// ledger. The first valid commit wins; a late commit under a
// superseded token (zombie worker) and any duplicate delivery are
// rejected with ErrFenced, counted in the commits_fenced gauge and not
// recorded.
func (c *Coordinator) Commit(worker string, cell int, token uint64, res sim.Result, attempts int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.o.Now()
	c.touchLocked(worker, now)
	c.expireLocked(now)
	if err := c.checkLeaseLocked(worker, cell, token); err != nil {
		c.o.Monitor.CommitFenced()
		return err
	}
	if c.ledger != nil && c.infraErr == nil {
		_, err := c.ledger.Record(cell, c.fps[cell], res)
		c.degradeLocked(err)
	}
	if c.fenced {
		// A fenced coordinator must not settle cells: its successor
		// owns the grid now.
		return fmt.Errorf("dist: %w", resume.ErrFenced)
	}
	c.results[cell] = res
	c.o.Monitor.Checkpointed()
	c.settleLocked(cell, cellDone, attempts)
	return nil
}

// Fail settles a cell as the hole the worker's sweep ended it in,
// after the grant's retries: its kind, the attempts spent and the
// cause (the hole's unwrapped error text). The hole reads as the
// in-process sweep's would, under the cell's grid index. Like a
// checkpoint journal, the ledger does not record it: a resumed
// coordinator runs the cell again.
func (c *Coordinator) Fail(worker string, cell int, token uint64, kind sweep.FailKind, attempts int, cause string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.o.Now()
	c.touchLocked(worker, now)
	c.expireLocked(now)
	if err := c.checkLeaseLocked(worker, cell, token); err != nil {
		return err
	}
	if c.fencedLocked() {
		return fmt.Errorf("dist: %w", resume.ErrFenced)
	}
	t := c.tasks[cell]
	c.holes[cell] = &sweep.CellError{
		Label: t.Label, Manager: t.Manager, Index: cell,
		Attempts: attempts, Kind: kind, Err: errors.New(cause),
	}
	c.settleLocked(cell, cellFailed, attempts)
	return nil
}

// settleLocked settles a leased cell in its final state, counting the
// attempts beyond the first as retries, as the in-process sweep does.
//
//compactlint:lockheld mu
func (c *Coordinator) settleLocked(cell int, st cellState, attempts int) {
	c.state[cell] = st
	c.settled++
	for ; attempts > 1; attempts-- {
		c.o.Monitor.Retried()
	}
	c.o.Monitor.CellDone(-1, st == cellFailed)
	if c.settled == len(c.tasks) {
		close(c.done)
	}
}

// Release gives a lease back unfinished — the graceful half of a
// worker drain. The cell returns to pending.
func (c *Coordinator) Release(worker string, cell int, token uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.o.Now()
	c.touchLocked(worker, now)
	if err := c.checkLeaseLocked(worker, cell, token); err != nil {
		return err
	}
	c.state[cell] = cellPending
	return nil
}

// Goodbye removes a draining worker from the alive set.
func (c *Coordinator) Goodbye(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.workers, worker)
	c.o.Monitor.WorkersAlive(len(c.workers))
}

// checkLeaseLocked verifies that (worker, cell, token) names the live
// lease. Every mismatch — settled cell, expired-and-reassigned lease,
// wrong worker, superseded token — is a fencing rejection.
//
//compactlint:lockheld mu
func (c *Coordinator) checkLeaseLocked(worker string, cell int, token uint64) error {
	if cell < 0 || cell >= len(c.tasks) {
		return fmt.Errorf("dist: cell %d out of range", cell)
	}
	if c.state[cell] != cellLeased || c.lease[cell].worker != worker || c.lease[cell].token != token {
		return fmt.Errorf("dist: cell %d token %d from %q: %w", cell, token, worker, resume.ErrFenced)
	}
	return nil
}

// touchLocked marks the worker alive.
//
//compactlint:lockheld mu
func (c *Coordinator) touchLocked(worker string, now time.Time) {
	if worker == "" {
		return
	}
	c.workers[worker] = now
	c.o.Monitor.WorkersAlive(len(c.workers))
}

// expireLocked reclaims every expired lease (heartbeat timeout) and
// prunes workers silent for 3×TTL from the alive gauge.
//
//compactlint:lockheld mu
func (c *Coordinator) expireLocked(now time.Time) {
	for i, st := range c.state {
		if st != cellLeased || now.Before(c.lease[i].expires) {
			continue
		}
		c.state[i] = cellPending
		c.o.Monitor.LeaseReassigned()
	}
	cutoff := now.Add(-3 * c.o.LeaseTTL)
	pruned := false
	for w, seen := range c.workers {
		if seen.Before(cutoff) {
			delete(c.workers, w)
			pruned = true
		}
	}
	if pruned {
		c.o.Monitor.WorkersAlive(len(c.workers))
	}
}

// fencedLocked checks the ledger's writer-epoch fence (one stat) and
// reports whether a successor coordinator owns the ledger.
//
//compactlint:lockheld mu
func (c *Coordinator) fencedLocked() bool {
	if c.ledger != nil && c.infraErr == nil {
		c.degradeLocked(c.ledger.CheckFence())
	}
	return c.fenced
}

// degradeLocked takes a ledger failure gracefully: a fencing rejection
// marks the coordinator dead (a successor owns the ledger), any other
// failure disables durability but lets the run finish; both surface
// from Err, and the ledger is not touched again.
//
//compactlint:lockheld mu
func (c *Coordinator) degradeLocked(err error) {
	switch {
	case err == nil:
	case errors.Is(err, resume.ErrFenced):
		c.fenced = true
		c.infraErr = fmt.Errorf("dist: coordinator superseded: %w", err)
		close(c.failed)
	default:
		c.infraErr = fmt.Errorf("dist: ledger disabled: %w", err)
	}
}

// Err returns the first coordinator-infrastructure error: a fencing
// takeover, or a ledger write failure that degraded durability.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.infraErr
}

// Done reports whether every cell is settled.
func (c *Coordinator) Done() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Wait blocks until every cell is settled, the coordinator is fenced
// by a successor, or ctx is canceled. On normal completion it returns
// Err (nil unless durability degraded mid-run).
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("dist: %w", context.Cause(ctx))
	case <-c.failed:
		return c.Err()
	case <-c.done:
		return c.Err()
	}
}

// awaitFarewells blocks until the alive set of a settled grid is
// empty — every worker said goodbye or was silent for 3×TTL — or ctx
// is canceled, checking at the workers' shortest backoff. With no cell
// leased, expireLocked only prunes.
func (c *Coordinator) awaitFarewells(ctx context.Context) {
	t := time.NewTicker(backoffBase)
	defer t.Stop()
	for {
		c.mu.Lock()
		c.expireLocked(c.o.Now())
		alive := len(c.workers)
		c.mu.Unlock()
		if alive == 0 {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// Outcomes merges the grid in cell order: committed results, the
// holes workers reported, and — for a stopped coordinator — unsettled
// cells as FailSkipped holes. With every cell settled the slice is
// byte-for-byte what a single-process sweep.RunOpts under the same
// Retries and CellTimeout would have produced for WriteCSV.
func (c *Coordinator) Outcomes() []sweep.Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	outs := make([]sweep.Outcome, len(c.tasks))
	for i, t := range c.tasks {
		cell := sweep.Cell{Label: t.Label, Config: t.Config, Manager: t.Manager}
		switch c.state[i] {
		case cellDone:
			outs[i] = sweep.Outcome{Cell: cell, Result: c.results[i], Restored: c.restored[i]}
		case cellFailed:
			outs[i] = sweep.Outcome{Cell: cell, Err: c.holes[i]}
		default:
			outs[i] = sweep.Outcome{Cell: cell, Err: &sweep.CellError{
				Label: t.Label, Manager: t.Manager, Index: i, Kind: sweep.FailSkipped,
				Err: errors.New("coordinator stopped before the cell settled"),
			}}
		}
	}
	return outs
}
