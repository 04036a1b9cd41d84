package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
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

// mustClaim claims a cell for the worker and fails the test unless the
// answer is a grant.
func mustClaim(t *testing.T, c *Coordinator, worker string) Response {
	t.Helper()
	g := c.Claim(worker)
	if g.Task == nil {
		t.Fatalf("claim by %s: %+v, want a grant", worker, g)
	}
	return g
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

	gA := mustClaim(t, c, "zombie")
	// The zombie stops heartbeating; the lease expires.
	clk.Advance(2 * time.Second)
	gB := mustClaim(t, c, "healthy")
	if gB.Task.Cell != gA.Task.Cell {
		t.Fatalf("successor got cell %d, want the expired cell %d", gB.Task.Cell, gA.Task.Cell)
	}
	if gB.Token <= gA.Token {
		t.Fatalf("successor token %d not after zombie token %d", gB.Token, gA.Token)
	}

	// The zombie wakes up and delivers late: fenced.
	zres := res(0)
	zres.HighWater = 424242 // a wrong value that must NOT survive
	if err := c.Commit("zombie", gA.Task.Cell, gA.Token, zres, 1); !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("zombie commit: err=%v, want ErrFenced", err)
	}
	// So is its renewal and its failure report.
	if err := c.Renew("zombie", gA.Task.Cell, gA.Token); !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("zombie renew: err=%v, want ErrFenced", err)
	}
	if err := c.Fail("zombie", gA.Task.Cell, gA.Token, sweep.FailError, 1, "late failure"); !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("zombie fail: err=%v, want ErrFenced", err)
	}

	// The healthy worker commits for real.
	if err := c.Commit("healthy", gB.Task.Cell, gB.Token, res(0), 1); err != nil {
		t.Fatalf("healthy commit: %v", err)
	}
	// And a duplicate delivery of that same commit is fenced as well.
	if err := c.Commit("healthy", gB.Task.Cell, gB.Token, res(0), 1); !errors.Is(err, resume.ErrFenced) {
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

// TestResumedCoordinatorRerunsHoles: a reported hole settles its cell
// under the cell's grid index and is not leased again, but the ledger
// does not settle it, as a checkpoint journal does not: a resumed
// coordinator leases the cell again.
func TestResumedCoordinatorRerunsHoles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	tasks := testTasks(t)
	led1, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewCoordinator(tasks, led1, Options{Params: testSpec().Params()})
	if err != nil {
		t.Fatal(err)
	}
	g := mustClaim(t, c1, "w1")
	hole := g.Task.Cell
	if err := c1.Fail("w1", hole, g.Token, sweep.FailPanic, 2, "boom"); err != nil {
		t.Fatal(err)
	}
	var ce *sweep.CellError
	if !errors.As(c1.Outcomes()[hole].Err, &ce) || ce.Index != hole || ce.Kind != sweep.FailPanic || ce.Attempts != 2 || ce.Err.Error() != "boom" {
		t.Fatalf("hole = %+v", c1.Outcomes()[hole])
	}
	if next := mustClaim(t, c1, "w1"); next.Task.Cell == hole {
		t.Fatalf("the hole at cell %d was leased again", hole)
	}
	led1.Close()

	led2, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	c2, err := NewCoordinator(tasks, led2, Options{Params: testSpec().Params()})
	if err != nil {
		t.Fatal(err)
	}
	if g := mustClaim(t, c2, "w2"); g.Task.Cell != hole {
		t.Fatalf("resumed coordinator leased cell %d first, want the hole at cell %d", g.Task.Cell, hole)
	}
}

// TestCoordinatorResumesFromLedger: a coordinator crash loses nothing
// — the successor replays commits from the ledger, issues tokens above
// every token its predecessor issued, and the predecessor (who does
// not know it is dead) is fenced out.
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
	g1 := mustClaim(t, c1, "w1")
	if err := c1.Commit("w1", g1.Task.Cell, g1.Token, res(g1.Task.Cell), 1); err != nil {
		t.Fatal(err)
	}
	g2 := mustClaim(t, c1, "w1")
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
	g3 := mustClaim(t, c2, "w2")
	if g3.Token <= g2.Token {
		t.Fatalf("successor token %d not above predecessor high-water %d", g3.Token, g2.Token)
	}

	// The predecessor still thinks it owns the grid; its next claim
	// finds the successor's epoch and it stops granting.
	if g4 := c1.Claim("w1"); g4.Error == "" || g4.Task != nil {
		t.Fatalf("stale coordinator claim: %+v, want an error", g4)
	}
	if err := c1.Err(); err == nil || !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("stale coordinator Err = %v, want ErrFenced", err)
	}
}

// TestBindRefusesForeignLedger: a ledger written for one grid refuses
// a coordinator running different flags. A ledger writes its header
// with its first commit, so the first coordinator commits a cell.
func TestBindRefusesForeignLedger(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	tasks := testTasks(t)
	led1, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewCoordinator(tasks, led1, Options{Params: testSpec().Params()})
	if err != nil {
		t.Fatal(err)
	}
	g := mustClaim(t, c1, "w1")
	if err := c1.Commit("w1", g.Task.Cell, g.Token, res(g.Task.Cell), 1); err != nil {
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

// TestLedgerHoldsCommitsOnly: the ledger is a checkpoint journal. A
// coordinator that goes through a lease expiry and reassignment, a
// fenced zombie commit, a hole, a drain release and two commits leaves
// the header and exactly the two commit lines in it.
func TestLedgerHoldsCommitsOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	clk := newClock()
	led, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	c, err := NewCoordinator(testTasks(t), led, Options{LeaseTTL: time.Second, Now: clk.Now, Params: testSpec().Params()})
	if err != nil {
		t.Fatal(err)
	}
	gA := mustClaim(t, c, "zombie")
	clk.Advance(2 * time.Second)
	gB := mustClaim(t, c, "healthy") // the expired lease, reassigned
	if err := c.Commit("zombie", gA.Task.Cell, gA.Token, res(0), 1); !errors.Is(err, resume.ErrFenced) {
		t.Fatalf("zombie commit: err=%v, want ErrFenced", err)
	}
	if err := c.Commit("healthy", gB.Task.Cell, gB.Token, res(gB.Task.Cell), 1); err != nil {
		t.Fatal(err)
	}
	gC := mustClaim(t, c, "w")
	if err := c.Fail("w", gC.Task.Cell, gC.Token, sweep.FailError, 1, "boom"); err != nil {
		t.Fatal(err)
	}
	gD := mustClaim(t, c, "drainer")
	if err := c.Release("drainer", gD.Task.Cell, gD.Token); err != nil {
		t.Fatal(err)
	}
	gE := mustClaim(t, c, "w")
	if err := c.Commit("w", gE.Task.Cell, gE.Token, res(gE.Task.Cell), 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "ledger.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], `{"v":`) {
		t.Fatalf("ledger holds %d lines, want the header and 2 commits:\n%s", len(lines), data)
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, `{"op":"commit"`) {
			t.Fatalf("ledger holds a record that is not a commit: %s", l)
		}
	}
}

// TestCoordinatorResumesParentLedger: a ledger written by a build that
// logged every lease decision still resumes. Its commit is adopted,
// its hole (a fail record) runs again, the release, fence and
// quarantine records are read past, and the successor's first token is
// above every token the file holds.
func TestCoordinatorResumesParentLedger(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	tasks := testTasks(t)
	fps := make([]string, len(tasks))
	for i, tk := range tasks {
		fps[i] = resume.Fingerprint(resume.CellKey{Index: i, Label: tk.Label, Manager: tk.Manager, Config: tk.Config})
	}
	params := testSpec().Params()
	ledger := fmt.Sprintf(`{"v":2,"grid":%q,"cells":%d,"params":%q}
{"op":"claim","cell":0,"fp":%[4]q,"worker":"w1","token":1}
{"op":"commit","cell":0,"fp":%[4]q,"worker":"w1","token":1,"result":{"Program":"random","Manager":"first-fit","Rounds":60,"HighWater":4242}}
{"op":"claim","cell":1,"fp":%[5]q,"worker":"w1","token":2}
{"op":"release","cell":1,"fp":%[5]q,"worker":"w1","token":2,"reason":"worker drain"}
{"op":"fence","cell":0,"fp":%[4]q,"worker":"w2","token":3,"reason":"stale or duplicate commit"}
{"op":"claim","cell":1,"fp":%[5]q,"worker":"w2","token":4}
{"op":"fail","cell":1,"fp":%[5]q,"worker":"w2","token":4,"attempt":1,"reason":"boom"}
{"op":"quarantine","cell":1,"fp":%[5]q,"worker":"w2","token":4,"reason":"boom"}
`, resume.GridFingerprint(fps), len(tasks), params, fps[0], fps[1])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ledger.ndjson"), []byte(ledger), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "epoch.00000001"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	led, err := resume.OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	c, err := NewCoordinator(tasks, led, Options{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Restored(); n != 1 || c.Outcomes()[0].Result.HighWater != 4242 {
		t.Fatalf("restored %d cells, cell 0 = %+v; want cell 0 alone at high water 4242", n, c.Outcomes()[0])
	}
	g := mustClaim(t, c, "w3")
	if g.Task.Cell != 1 || g.Token <= 4 {
		t.Fatalf("first grant: cell %d token %d, want the hole at cell 1 under a token above 4", g.Task.Cell, g.Token)
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

// csvOf renders outcomes as the sweep CSV.
func csvOf(t *testing.T, outs []sweep.Outcome) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := sweep.WriteCSV(&b, outs); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// pipeRun settles the coordinator's grid with 3 pipe workers, worker 0
// delivering every commit twice, and returns the merged CSV and the
// number of leases granted. With leaseOnce set, a lease beyond one per
// cell stops the run at once rather than letting it settle.
func pipeRun(t *testing.T, coord *Coordinator, cells int, leaseOnce bool) ([]byte, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.WithoutCancel(t.Context()), time.Minute)
	defer cancel()
	var leases atomic.Int32
	lease := func() {
		if leases.Add(1) > int32(cells) && leaseOnce {
			cancel()
		}
	}
	errc := make(chan error, 3)
	// Workers 1 and 2 run no cell until worker 0 holds a lease, so
	// worker 0 commits at least once when the cells succeed, however
	// fast they run.
	claimed := make(chan struct{})
	var once sync.Once
	for i := 0; i < 3; i++ {
		o := WorkerOptions{ID: fmt.Sprintf("w%d", i)}
		if i == 0 {
			// Worker 0 double-delivers every commit; fencing must absorb it.
			o.Hooks.CommitCopies = func(int) int { return 2 }
			o.Hooks.AfterClaim = func(int) {
				lease()
				once.Do(func() { close(claimed) })
			}
		} else {
			o.Hooks.AfterClaim = func(int) {
				lease()
				select {
				case <-claimed:
				case <-ctx.Done():
				}
			}
		}
		startPipeWorker(ctx, coord, o, errc)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("%v after %d leases for %d cells", err, leases.Load(), cells)
	}
	for i := 0; i < 3; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return csvOf(t, coord.Outcomes()), int(leases.Load())
}

// TestDistributedMergeByteIdentical is the acceptance core: the same
// grid run single-process and run distributed (3 pipe workers, one of
// them double-delivering a commit) must merge to byte-identical CSV.
func TestDistributedMergeByteIdentical(t *testing.T) {
	cells, tasks, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	outs, err := sweep.RunOpts(t.Context(), cells, sweep.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := csvOf(t, outs)

	mon := sweep.NewMonitor(obs.NewRegistry())
	coord, err := NewCoordinator(tasks, nil, Options{LeaseTTL: 2 * time.Second, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := pipeRun(t, coord, len(tasks), false)
	if !bytes.Equal(want, got) {
		t.Fatalf("distributed CSV differs from single-process CSV:\n--- single\n%s\n--- distributed\n%s", want, got)
	}
	if fenced := mon.Snapshot().CommitsFenced; fenced == 0 {
		t.Error("duplicate deliveries were not fenced (gauge is zero)")
	}
}

// TestHolesMatchSingleProcess: a grid with failing cells merges to the
// single-process CSV byte for byte under the same Retries. Each cell is
// leased once: its worker retries it in place, and the coordinator
// settles the hole the worker reports under the cell's grid index.
func TestHolesMatchSingleProcess(t *testing.T) {
	spec := testSpec()
	spec.Managers = []string{"first-fit", "no-such-manager"}
	cells, tasks, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	const retries = 1
	outs, err := sweep.RunOpts(t.Context(), cells, sweep.Options{Parallelism: 2, Retries: retries, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	want := csvOf(t, outs)

	mon := sweep.NewMonitor(obs.NewRegistry())
	coord, err := NewCoordinator(tasks, nil, Options{Retries: retries, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	got, leases := pipeRun(t, coord, len(tasks), true)
	if !bytes.Equal(want, got) {
		t.Fatalf("distributed CSV differs from single-process CSV:\n--- single\n%s\n--- distributed\n%s", want, got)
	}
	if leases != len(tasks) {
		t.Errorf("%d leases for %d cells, want one each", leases, len(tasks))
	}
	rows := strings.Split(string(got), "\n")
	for _, i := range []int{1, 3} {
		hole := fmt.Sprintf(`sweep: cell %d ("random" vs "no-such-manager") error after 2 attempt(s): mm: unknown manager`, i)
		if !strings.Contains(rows[1+i], hole) {
			t.Errorf("row of cell %d = %q, want the hole %q", i, rows[1+i], hole)
		}
	}
	// The retries gauge reads as in process: one retry per hole.
	if p := mon.Snapshot(); p.Retries != 2 || p.Failed != 2 {
		t.Errorf("retries = %d, failed = %d; want 2 and 2", p.Retries, p.Failed)
	}
}

// TestCellTimeoutFromCoordinator: the cell deadline is the grid's, set
// on the coordinator; the worker sets none of its own. A cell that
// cannot finish in time settles as a deadline hole after its retries.
// (The cause names the round the deadline cut, so it is not compared.)
func TestCellTimeoutFromCoordinator(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(t.Context()), time.Minute)
	defer cancel()
	spec := GridSpec{
		Program: "random", Seed: 7, Rounds: 1_000_000, M: 1 << 12, N: 1 << 5,
		Cs: []int64{8}, Managers: []string{"first-fit"},
	}
	_, tasks, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(tasks, nil, Options{Retries: 1, CellTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	startPipeWorker(ctx, coord, WorkerOptions{ID: "w0"}, errc)
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	var ce *sweep.CellError
	if !errors.As(coord.Outcomes()[0].Err, &ce) || ce.Kind != sweep.FailDeadline || ce.Attempts != 2 {
		t.Fatalf("cell 0 = %+v, want a deadline hole after 2 attempts", coord.Outcomes()[0])
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

// holdConn is a worker transport that calls hold after an empty claim
// answer, before the worker backs off.
type holdConn struct {
	Conn
	hold func()
}

func (h holdConn) Call(ctx context.Context, req Request) (Response, error) {
	resp, err := h.Conn.Call(ctx, req)
	if err == nil && req.Op == "claim" && resp.OK && !resp.Done && resp.Task == nil {
		h.hold()
	}
	return resp, err
}

// TestServeAnswersBackedOffWorkers: two HTTP workers share a 2-cell
// grid served by Serve, one cell each. Worker b keeps its lease until
// worker a, its own cell done, has claimed again and found nothing
// open; a is then held in its backoff until b has settled the grid,
// said goodbye and gone, so a's next claim comes after Wait returned.
// Serve still answers it Done: both Run calls return nil, and Serve
// returns once the alive set is empty.
func TestServeAnswersBackedOffWorkers(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(t.Context()), time.Minute)
	defer cancel()
	spec := testSpec()
	spec.Managers = spec.Managers[:1]
	_, tasks, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 {
		t.Fatalf("grid has %d cells, want 2", len(tasks))
	}
	mon := sweep.NewMonitor(obs.NewRegistry())
	coord, err := NewCoordinator(tasks, nil, Options{LeaseTTL: 2 * time.Second, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, coord, l) }()

	base := "http://" + l.Addr().String()
	bClaimed, aEmpty, bGone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	wait := func(ch <-chan struct{}) {
		select {
		case <-ch:
		case <-ctx.Done():
		}
	}
	var once sync.Once
	a := NewWorker(holdConn{Conn: &HTTPConn{Base: base}, hold: func() {
		once.Do(func() {
			close(aEmpty)
			wait(bGone)
			// Not a synchronisation: a server that shuts down when
			// Wait returns gets time to be gone before a claims again.
			time.Sleep(200 * time.Millisecond)
		})
	}}, WorkerOptions{ID: "a", Hooks: Hooks{AfterClaim: func(int) { wait(bClaimed) }}})
	b := NewWorker(&HTTPConn{Base: base}, WorkerOptions{ID: "b", Hooks: Hooks{AfterClaim: func(int) {
		close(bClaimed)
		wait(aEmpty)
	}}})
	aErr := make(chan error, 1)
	go func() { aErr <- a.Run(ctx, ctx) }()
	if err := b.Run(ctx, ctx); err != nil {
		t.Errorf("worker b: %v", err)
	}
	close(bGone)
	if err := <-aErr; err != nil {
		t.Errorf("worker a, held in its backoff: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if n := mon.Snapshot().WorkersAlive; n != 0 {
		t.Errorf("Serve returned with %d workers alive", n)
	}
	for i, o := range coord.Outcomes() {
		if o.Err != nil {
			t.Errorf("cell %d: %v", i, o.Err)
		}
	}
}

// TestServeClosesUnusedConnection: a connection dialed to the lease
// server but never sent a request does not hold Serve open. With one
// such raw TCP connection open, Serve returns within 500 ms of the last
// worker's farewell, where http.Server.Shutdown alone would wait out
// its 2 s deadline, and the connection reads EOF.
func TestServeClosesUnusedConnection(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(t.Context()), time.Minute)
	defer cancel()
	spec := testSpec()
	spec.Managers = spec.Managers[:1]
	_, tasks, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(tasks, nil, Options{LeaseTTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, coord, l) }()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	w := NewWorker(&HTTPConn{Base: "http://" + l.Addr().String()}, WorkerOptions{ID: "w"})
	if err := w.Run(ctx, ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	left := time.Now()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if d := time.Since(left); d > 500*time.Millisecond {
		t.Errorf("Serve returned %s after the last farewell, want at most 500ms", d)
	}
	if err := raw.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("unused connection read %d bytes, %v; want EOF", n, err)
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
	// A worker reports the holes of cells it ran, nothing else.
	for _, kind := range []sweep.FailKind{sweep.FailCanceled, sweep.FailSkipped, 99} {
		if resp := coord.Handle(Request{Op: "fail", Worker: "w", Cell: 0, Token: 1, Kind: kind}); resp.Error == "" {
			t.Errorf("fail with a %s hole accepted", kind)
		}
	}
	// A commit under a never-issued token is fenced, not an error.
	if resp := coord.Handle(Request{Op: "commit", Worker: "w", Cell: 0, Token: 99, Result: &sim.Result{}, Attempts: 1}); !resp.Fenced {
		t.Errorf("stale commit response: %+v", resp)
	}
	// Claim/goodbye round-trip.
	resp := coord.Handle(Request{Op: "claim", Worker: "w"})
	if !resp.OK || resp.Task == nil || resp.TTLMillis <= 0 {
		t.Fatalf("claim response: %+v", resp)
	}
	// A commit or fail on that lease claiming attempts the grid's
	// retries cannot have spent is refused at once, and the lease stays.
	cell, token := resp.Task.Cell, resp.Token
	for _, req := range []Request{
		{Op: "commit", Result: &sim.Result{}, Attempts: math.MaxInt},
		{Op: "commit", Result: &sim.Result{}, Attempts: -1},
		{Op: "commit", Result: &sim.Result{}, Attempts: 2},
		{Op: "fail", Kind: sweep.FailError, Attempts: math.MaxInt},
	} {
		req.Worker, req.Cell, req.Token = "w", cell, token
		answer := make(chan Response, 1)
		go func() { answer <- coord.Handle(req) }()
		select {
		case resp := <-answer:
			if resp.Error == "" {
				t.Errorf("%s after %d attempts accepted: %+v", req.Op, req.Attempts, resp)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s after %d attempts: no answer within 1s", req.Op, req.Attempts)
		}
	}
	if resp := coord.Handle(Request{Op: "commit", Worker: "w", Cell: cell, Token: token, Result: &sim.Result{}, Attempts: 1}); !resp.OK {
		t.Errorf("commit on the lease after the refusals: %+v", resp)
	}
	if resp := coord.Handle(Request{Op: "goodbye", Worker: "w"}); !resp.OK {
		t.Errorf("goodbye response: %+v", resp)
	}
}

// TestHTTPRefusesOversizedRequest: the HTTP transport reads at most
// one message's worth of body, as the NDJSON pipe does. A 2 MiB claim
// is refused with a 4xx before it reaches the coordinator.
func TestHTTPRefusesOversizedRequest(t *testing.T) {
	mon := sweep.NewMonitor(obs.NewRegistry())
	coord, err := NewCoordinator(testTasks(t), nil, Options{Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()
	body := fmt.Sprintf(`{"op":"claim","worker":%q}`, strings.Repeat("w", 2<<20))
	hres, err := srv.Client().Post(srv.URL+leasePath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode < 400 || hres.StatusCode >= 500 {
		t.Errorf("2 MiB claim answered %s, want a 4xx", hres.Status)
	}
	if n := mon.Snapshot().WorkersAlive; n != 0 {
		t.Errorf("%d workers alive after the refused claim, want 0", n)
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
