package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"compaction/internal/obs"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"

	_ "compaction/internal/mm/all"
)

// fakeClock is the deterministic clock behind Options.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testSpec is a small real grid: 2 bounds × 2 managers, seeded random
// workload — cheap, deterministic, catalog-resolvable.
func testSpec() GridSpec {
	return GridSpec{
		Program: "random", Seed: 7, Rounds: 60,
		M: 1 << 12, N: 1 << 5,
		Cs: []int64{8, 16}, Managers: []string{"first-fit", "best-fit"},
	}
}

func testTasks(t *testing.T) []Task {
	t.Helper()
	_, tasks, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

func res(i int) sim.Result {
	return sim.Result{Program: "random", Manager: "first-fit", Rounds: 60, HighWater: int64(100 * (i + 1))}
}

// TestZombieCommitFenced is the core fencing guarantee: a worker that
// goes silent past the lease TTL loses the cell to a successor under a
// larger token, and its late commit — the zombie write — is rejected,
// leaving the successor's result in place.
func TestZombieCommitFenced(t *testing.T) {
	clk := newClock()
	mon := sweep.NewMonitor(obs.NewRegistry())
	c, err := NewCoordinator(testTasks(t), nil, Options{
		LeaseTTL: time.Second, Now: clk.Now, Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}

	gA, st := c.Claim("zombie")
	if st != ClaimGranted {
		t.Fatalf("claim A: %v", st)
	}
	// The zombie stops heartbeating; the lease expires.
	clk.Advance(2 * time.Second)
	gB, st := c.Claim("healthy")
	if st != ClaimGranted {
		t.Fatalf("claim B: %v", st)
	}
	if gB.Task.Cell != gA.Task.Cell {
		t.Fatalf("successor got cell %d, want the expired cell %d", gB.Task.Cell, gA.Task.Cell)
	}
	if gB.Token <= gA.Token {
		t.Fatalf("successor token %d not after zombie token %d", gB.Token, gA.Token)
	}

	// The zombie wakes up and delivers late: fenced.
	zres := res(0)
	zres.HighWater = 424242 // a wrong value that must NOT survive
	if err := c.Commit("zombie", gA.Task.Cell, gA.Token, zres); !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("zombie commit: err=%v, want ErrFenced", err)
	}
	// So is its renewal and its failure report.
	if err := c.Renew("zombie", gA.Task.Cell, gA.Token); !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("zombie renew: err=%v, want ErrFenced", err)
	}
	if err := c.Fail("zombie", gA.Task.Cell, gA.Token, "late failure"); !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("zombie fail: err=%v, want ErrFenced", err)
	}

	// The healthy worker commits for real.
	if err := c.Commit("healthy", gB.Task.Cell, gB.Token, res(0)); err != nil {
		t.Fatalf("healthy commit: %v", err)
	}
	// And a duplicate delivery of that same commit is fenced as well.
	if err := c.Commit("healthy", gB.Task.Cell, gB.Token, res(0)); !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("duplicate commit: err=%v, want ErrFenced", err)
	}

	outs := c.Outcomes()
	if outs[gB.Task.Cell].Result.HighWater != res(0).HighWater {
		t.Fatalf("cell result = %+v; the zombie's write leaked through", outs[gB.Task.Cell].Result)
	}
	p := mon.Snapshot()
	if p.LeasesReassigned != 1 {
		t.Errorf("leases reassigned = %d, want 1", p.LeasesReassigned)
	}
	if p.CommitsFenced != 2 {
		t.Errorf("commits fenced = %d, want 2 (zombie + duplicate)", p.CommitsFenced)
	}
}

// TestQuarantineAfterMaxFailures: a cell that fails on distinct
// workers MaxFailures times becomes a typed poison-cell hole and is
// never leased again; the rest of the grid still settles.
func TestQuarantineAfterMaxFailures(t *testing.T) {
	clk := newClock()
	tasks := testTasks(t)
	c, err := NewCoordinator(tasks, nil, Options{
		LeaseTTL: time.Second, MaxFailures: 2, Now: clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, st := c.Claim("w1")
	if st != ClaimGranted {
		t.Fatal(st)
	}
	poison := g.Task.Cell
	if err := c.Fail("w1", poison, g.Token, "boom 1"); err != nil {
		t.Fatal(err)
	}
	g2, st := c.Claim("w2")
	if st != ClaimGranted || g2.Task.Cell != poison {
		t.Fatalf("retry claim: state=%v cell=%d, want cell %d back", st, g2.Task.Cell, poison)
	}
	if err := c.Fail("w2", poison, g2.Token, "boom 2"); err != nil {
		t.Fatal(err)
	}
	// Quarantined now: the next claim gets a different cell.
	g3, st := c.Claim("w3")
	if st != ClaimGranted || g3.Task.Cell == poison {
		t.Fatalf("claim after quarantine: state=%v cell=%d", st, g3.Task.Cell)
	}
	// Settle the rest.
	if err := c.Commit("w3", g3.Task.Cell, g3.Token, res(g3.Task.Cell)); err != nil {
		t.Fatal(err)
	}
	for {
		g, st := c.Claim("w3")
		if st != ClaimGranted {
			break
		}
		if err := c.Commit("w3", g.Task.Cell, g.Token, res(g.Task.Cell)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Done() {
		t.Fatal("grid not settled with the poison cell quarantined")
	}
	var ce *sweep.CellError
	if !errors.As(c.Outcomes()[poison].Err, &ce) {
		t.Fatalf("quarantined outcome: %+v", c.Outcomes()[poison])
	}
	if ce.Kind != sweep.FailQuarantined || ce.Attempts != 2 || ce.Err.Error() != "boom 2" {
		t.Fatalf("quarantine hole = %+v", ce)
	}
}

// TestCoordinatorResumesFromLedger: a coordinator crash loses nothing
// — the successor replays commits and quarantines from the ledger,
// seeds its token counter above every issued token, and the
// predecessor (who does not know it is dead) is fenced out.
func TestCoordinatorResumesFromLedger(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	tasks := testTasks(t)
	clk := newClock()

	led1, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewCoordinator(tasks, led1, Options{LeaseTTL: time.Second, Now: clk.Now, Params: testSpec().Params()})
	if err != nil {
		t.Fatal(err)
	}
	g1, st := c1.Claim("w1")
	if st != ClaimGranted {
		t.Fatal(st)
	}
	if err := c1.Commit("w1", g1.Task.Cell, g1.Token, res(g1.Task.Cell)); err != nil {
		t.Fatal(err)
	}
	g2, st := c1.Claim("w1")
	if st != ClaimGranted {
		t.Fatal(st)
	}
	// c1 "crashes" here: g2's lease is in flight, never committed.

	led2, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	c2, err := NewCoordinator(tasks, led2, Options{LeaseTTL: time.Second, Now: clk.Now, Params: testSpec().Params()})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Restored() != 1 {
		t.Fatalf("restored = %d, want 1", c2.Restored())
	}
	outs := c2.Outcomes()
	if !outs[g1.Task.Cell].Restored || outs[g1.Task.Cell].Result.HighWater != res(g1.Task.Cell).HighWater {
		t.Fatalf("restored cell %d: %+v", g1.Task.Cell, outs[g1.Task.Cell])
	}

	// The successor's tokens are strictly newer than anything c1 issued.
	g3, st := c2.Claim("w2")
	if st != ClaimGranted {
		t.Fatal(st)
	}
	if g3.Token <= g2.Token {
		t.Fatalf("successor token %d not above predecessor high-water %d", g3.Token, g2.Token)
	}

	// The predecessor still thinks it owns the grid; its next ledger
	// write is fenced and it stops granting.
	g4, st := c1.Claim("w1")
	_ = g4
	if st != ClaimFailed {
		t.Fatalf("stale coordinator claim: state=%v, want ClaimFailed", st)
	}
	if err := c1.Err(); err == nil || !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("stale coordinator Err = %v, want ErrFenced", err)
	}
}

// TestBindRefusesForeignLedger: a ledger written for one grid refuses
// a coordinator running different flags.
func TestBindRefusesForeignLedger(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	tasks := testTasks(t)
	led1, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(tasks, led1, Options{Params: testSpec().Params()}); err != nil {
		t.Fatal(err)
	}
	led1.Close()

	led2, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if _, err := NewCoordinator(tasks, led2, Options{Params: "adv=random seed=8 rounds=60 ell=0"}); !errors.Is(err, resume.ErrMismatch) {
		t.Fatalf("foreign params bind: err=%v, want ErrMismatch", err)
	}
}

// startPipeWorker wires a worker to the coordinator over an in-process
// NDJSON pipe pair — the same framing the stdio transport uses.
func startPipeWorker(ctx context.Context, c *Coordinator, o WorkerOptions, errc chan<- error) {
	cr, cw := io.Pipe()
	sr, sw := io.Pipe()
	go func() { _ = ServeLines(c, cr, sw) }()
	w := NewWorker(NewLineConn(sr, cw), o)
	go func() {
		errc <- w.Run(ctx, ctx)
		cw.Close()
	}()
}

// TestDistributedMergeByteIdentical is the acceptance core: the same
// grid run single-process and run distributed (3 pipe workers, one of
// them double-delivering a commit) must merge to byte-identical CSV.
func TestDistributedMergeByteIdentical(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(t.Context()), time.Minute)
	defer cancel()
	spec := testSpec()
	cells, tasks, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	outs, err := sweep.RunOpts(ctx, cells, sweep.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.WriteCSV(&want, outs); err != nil {
		t.Fatal(err)
	}

	mon := sweep.NewMonitor(obs.NewRegistry())
	coord, err := NewCoordinator(tasks, nil, Options{LeaseTTL: 2 * time.Second, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 3)
	// Workers 1 and 2 run no cell until worker 0 holds a lease, so
	// worker 0 commits at least once however fast the cells run.
	claimed := make(chan struct{})
	var once sync.Once
	for i := 0; i < 3; i++ {
		o := WorkerOptions{ID: fmt.Sprintf("w%d", i)}
		if i == 0 {
			// Worker 0 double-delivers every commit; fencing must absorb it.
			o.Hooks.CommitCopies = func(int) int { return 2 }
			o.Hooks.AfterClaim = func(int) { once.Do(func() { close(claimed) }) }
		} else {
			o.Hooks.AfterClaim = func(int) {
				select {
				case <-claimed:
				case <-ctx.Done():
				}
			}
		}
		startPipeWorker(ctx, coord, o, errc)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	var got bytes.Buffer
	if err := sweep.WriteCSV(&got, coord.Outcomes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("distributed CSV differs from single-process CSV:\n--- single\n%s\n--- distributed\n%s", want.Bytes(), got.Bytes())
	}
	if fenced := mon.Snapshot().CommitsFenced; fenced == 0 {
		t.Error("duplicate deliveries were not fenced (gauge is zero)")
	}
}

// TestHTTPTransportEndToEnd runs a worker against the real HTTP
// handler and checks the grid settles.
func TestHTTPTransportEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(t.Context()), time.Minute)
	defer cancel()
	tasks := testTasks(t)
	coord, err := NewCoordinator(tasks, nil, Options{LeaseTTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()

	w := NewWorker(&HTTPConn{Base: srv.URL}, WorkerOptions{ID: "http-worker"})
	if err := w.Run(ctx, ctx); err != nil {
		t.Fatal(err)
	}
	if !coord.Done() {
		t.Fatal("grid not settled")
	}
	for i, o := range coord.Outcomes() {
		if o.Err != nil {
			t.Errorf("cell %d: %v", i, o.Err)
		}
	}
}

// TestWorkerDrain: a canceled claim context ends the loop cleanly with
// a goodbye, without touching the run context.
func TestWorkerDrain(t *testing.T) {
	tasks := testTasks(t)
	coord, err := NewCoordinator(tasks, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()

	runCtx := t.Context()
	claimCtx, drain := context.WithCancel(runCtx)
	drain() // drained before the first claim
	w := NewWorker(&HTTPConn{Base: srv.URL}, WorkerOptions{ID: "drainer"})
	if err := w.Run(runCtx, claimCtx); err != nil {
		t.Fatalf("drained worker: %v", err)
	}
	if coord.Done() {
		t.Fatal("nothing ran, yet the grid settled")
	}
}

// TestHandleProtocolErrors pins the wire behavior for malformed and
// fenced traffic.
func TestHandleProtocolErrors(t *testing.T) {
	coord, err := NewCoordinator(testTasks(t), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp := coord.Handle(Request{Op: "explode"}); resp.Error == "" {
		t.Error("unknown op accepted")
	}
	if resp := coord.Handle(Request{Op: "commit", Worker: "w", Cell: 0, Token: 1}); resp.Error == "" {
		t.Error("commit without result accepted")
	}
	// A commit under a never-issued token is fenced, not an error.
	if resp := coord.Handle(Request{Op: "commit", Worker: "w", Cell: 0, Token: 99, Result: &sim.Result{}}); !resp.Fenced {
		t.Errorf("stale commit response: %+v", resp)
	}
	// Claim/goodbye round-trip.
	resp := coord.Handle(Request{Op: "claim", Worker: "w"})
	if !resp.OK || resp.Task == nil || resp.TTLMillis <= 0 {
		t.Fatalf("claim response: %+v", resp)
	}
	if resp := coord.Handle(Request{Op: "goodbye", Worker: "w"}); !resp.OK {
		t.Errorf("goodbye response: %+v", resp)
	}
}

// TestExpandMatchesSweepGrid: the wire tasks and the in-process cells
// agree on order and fingerprint-relevant fields — the invariant the
// byte-identical merge rests on.
func TestExpandMatchesSweepGrid(t *testing.T) {
	cells, tasks, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 || len(tasks) != 4 {
		t.Fatalf("grid size: %d cells, %d tasks", len(cells), len(tasks))
	}
	for i := range cells {
		if tasks[i].Cell != i {
			t.Errorf("task %d numbered %d", i, tasks[i].Cell)
		}
		if tasks[i].Label != cells[i].Label || tasks[i].Manager != cells[i].Manager || tasks[i].Config != cells[i].Config {
			t.Errorf("task %d diverges from cell: %+v vs %+v", i, tasks[i], cells[i])
		}
		// And the reconstructed cell on the worker side matches again.
		rc, err := tasks[i].MakeCell()
		if err != nil {
			t.Fatal(err)
		}
		if rc.Label != cells[i].Label || rc.Manager != cells[i].Manager || rc.Config != cells[i].Config {
			t.Errorf("reconstructed cell %d diverges: %+v", i, rc)
		}
	}
}
