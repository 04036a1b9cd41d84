package sweep

import (
	"fmt"
	"io"
	"sync"
	"time"

	"compaction/internal/obs"
)

// Monitor tracks a sweep in flight: total and finished cells, failure
// count, fault-tolerance activity (retries, checkpoints, restored and
// skipped cells) and per-worker progress, all behind atomic gauges so
// readers (HTTP handlers, progress tickers) never contend with
// workers. When constructed over an obs.Registry the gauges are also
// published there under "sweep.*" names.
type Monitor struct {
	reg         *obs.Registry
	total       *obs.Gauge
	done        *obs.Gauge
	failed      *obs.Gauge
	retries     *obs.Gauge
	restored    *obs.Gauge
	skipped     *obs.Gauge
	checkpoints *obs.Gauge

	// Distributed-sweep gauges, driven by the internal/dist
	// coordinator: live worker count, leases that expired and became
	// eligible for reassignment, and commits rejected by lease
	// fencing (zombie or duplicate deliveries).
	workersAlive     *obs.Gauge
	leasesReassigned *obs.Gauge
	commitsFenced    *obs.Gauge

	// mu guards the non-atomic fields below, which Begin rewrites at
	// the start of every run while external readers (HTTP status
	// handlers, tickers) may be mid-Snapshot. Workers never take it:
	// Begin happens-before the worker goroutines exist, and they only
	// touch the atomic gauges.
	mu      sync.Mutex   //compactlint:lockrank 1
	workers []*obs.Gauge //compactlint:guardedby mu
	start   time.Time    //compactlint:guardedby mu
}

// NewMonitor returns a monitor registering its gauges in reg. A nil
// registry is allowed: the monitor then keeps private gauges, which
// still feed Snapshot and Line.
func NewMonitor(reg *obs.Registry) *Monitor {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Monitor{reg: reg}
	m.total = reg.Gauge("sweep.cells_total", "Cells in the sweep's grid.")
	m.done = reg.Gauge("sweep.cells_done", "Cells settled, holes and restored cells included.")
	m.failed = reg.Gauge("sweep.cells_failed", "Cells settled as holes after their retries.")
	m.retries = reg.Gauge("sweep.retries", "Failed cell attempts run again.")
	m.restored = reg.Gauge("sweep.cells_restored", "Cells restored from a checkpoint journal or lease ledger instead of run.")
	m.skipped = reg.Gauge("sweep.cells_skipped", "Cells left unrun because the sweep was canceled.")
	m.checkpoints = reg.Gauge("sweep.checkpoints", "Durable journal writes and ledger commits.")
	m.workersAlive = reg.Gauge("sweep.workers_alive", "Distributed workers heard from within three lease TTLs.")
	m.leasesReassigned = reg.Gauge("sweep.leases_reassigned", "Leases that expired and became claimable again.")
	m.commitsFenced = reg.Gauge("sweep.commits_fenced", "Commits rejected by lease fencing, stale or duplicate.")
	return m
}

// The recording surface below is shared by the in-process scheduler
// (RunOpts) and the internal/dist coordinator. Nil receivers are
// allowed throughout, so neither needs any branching.

// Begin arms the monitor for a run of total cells over the given
// in-process worker count. A distributed run passes 0: its workers
// are remote processes, counted by WorkersAlive instead.
func (m *Monitor) Begin(total, workers int) {
	if m == nil {
		return
	}
	m.total.Set(int64(total))
	m.done.Set(0)
	m.failed.Set(0)
	m.retries.Set(0)
	m.restored.Set(0)
	m.skipped.Set(0)
	m.checkpoints.Set(0)
	m.workersAlive.Set(0)
	m.leasesReassigned.Set(0)
	m.commitsFenced.Set(0)
	m.mu.Lock()
	m.workers = m.workers[:0]
	for w := 0; w < workers; w++ {
		g := m.reg.Gauge(fmt.Sprintf("sweep.worker%02d.cells_done", w), fmt.Sprintf("Cells settled by in-process sweep worker %d.", w))
		g.Set(0)
		m.workers = append(m.workers, g)
	}
	m.start = time.Now()
	m.mu.Unlock()
}

// CellDone records one settled cell; failed marks a hole. worker is
// the index of the in-process worker that ran the cell, or -1 for a
// cell a distributed worker settled.
func (m *Monitor) CellDone(worker int, failed bool) {
	if m == nil {
		return
	}
	m.done.Add(1)
	if failed {
		m.failed.Add(1)
	}
	if worker >= 0 && worker < len(m.workers) { //compactlint:allow atomicguard workers is frozen by Begin before any worker goroutine exists
		m.workers[worker].Add(1) //compactlint:allow atomicguard workers is frozen by Begin before any worker goroutine exists
	}
}

// CellRestored records one cell satisfied from a checkpoint journal or
// a replayed lease ledger instead of a run. Restored cells count as
// done.
func (m *Monitor) CellRestored() {
	if m == nil {
		return
	}
	m.done.Add(1)
	m.restored.Add(1)
}

// CellSkipped records one cell abandoned unrun because the sweep was
// canceled. Skipped cells do NOT count as done.
func (m *Monitor) CellSkipped() {
	if m == nil {
		return
	}
	m.skipped.Add(1)
}

// Retried records one failed attempt that is run again after a
// backoff, in process or on a distributed worker.
func (m *Monitor) Retried() {
	if m == nil {
		return
	}
	m.retries.Add(1)
}

// Checkpointed records one durable journal write or ledger commit.
func (m *Monitor) Checkpointed() {
	if m == nil {
		return
	}
	m.checkpoints.Add(1)
}

// WorkersAlive sets the live worker count.
func (m *Monitor) WorkersAlive(n int) {
	if m == nil {
		return
	}
	m.workersAlive.Set(int64(n))
}

// LeaseReassigned records one lease that expired (heartbeat timeout)
// and was handed back for reassignment.
func (m *Monitor) LeaseReassigned() {
	if m == nil {
		return
	}
	m.leasesReassigned.Add(1)
}

// CommitFenced records one rejected commit: a zombie worker's late
// delivery, or a duplicate of an already-committed cell.
func (m *Monitor) CommitFenced() {
	if m == nil {
		return
	}
	m.commitsFenced.Add(1)
}

// Progress is a point-in-time view of a monitored sweep.
type Progress struct {
	Done, Total, Failed        int64
	Retries, Restored, Skipped int64
	Checkpoints                int64
	// Distributed-sweep counters; zero in single-process runs.
	WorkersAlive     int64
	LeasesReassigned int64
	CommitsFenced    int64
	PerWorker        []int64
	Elapsed          time.Duration
	// ETA extrapolates the remaining wall clock from the average cell
	// rate so far; 0 until the first cell finishes.
	ETA time.Duration
}

// Snapshot returns the current progress.
func (m *Monitor) Snapshot() Progress {
	p := Progress{
		Done:        m.done.Value(),
		Total:       m.total.Value(),
		Failed:      m.failed.Value(),
		Retries:     m.retries.Value(),
		Restored:    m.restored.Value(),
		Skipped:     m.skipped.Value(),
		Checkpoints: m.checkpoints.Value(),

		WorkersAlive:     m.workersAlive.Value(),
		LeasesReassigned: m.leasesReassigned.Value(),
		CommitsFenced:    m.commitsFenced.Value(),
	}
	m.mu.Lock()
	for _, w := range m.workers {
		p.PerWorker = append(p.PerWorker, w.Value())
	}
	start := m.start
	m.mu.Unlock()
	if !start.IsZero() {
		p.Elapsed = time.Since(start)
	}
	// Skipped cells are finished business: a canceled sweep abandons
	// them permanently, so they must not be extrapolated as pending
	// work. Without the Skipped term a canceled sweep's gauges froze
	// with Done < Total and the ETA stayed a positive lie forever —
	// which compactd would then serve as live job status.
	if p.Done > 0 && p.Done+p.Skipped < p.Total {
		perCell := p.Elapsed / time.Duration(p.Done)
		p.ETA = perCell * time.Duration(p.Total-p.Done-p.Skipped)
	}
	return p
}

// Line renders the progress as a one-line stderr ticker.
func (p Progress) Line() string {
	pct := 0.0
	if p.Total > 0 {
		pct = 100 * float64(p.Done) / float64(p.Total)
	}
	line := fmt.Sprintf("sweep: %d/%d cells (%.1f%%), %d workers",
		p.Done, p.Total, pct, len(p.PerWorker))
	if p.Restored > 0 {
		line += fmt.Sprintf(", %d resumed", p.Restored)
	}
	if p.Retries > 0 {
		line += fmt.Sprintf(", %d retries", p.Retries)
	}
	if p.Failed > 0 {
		line += fmt.Sprintf(", %d failed", p.Failed)
	}
	if p.Skipped > 0 {
		line += fmt.Sprintf(", %d skipped", p.Skipped)
	}
	if p.WorkersAlive > 0 {
		line += fmt.Sprintf(", %d workers alive", p.WorkersAlive)
	}
	if p.LeasesReassigned > 0 {
		line += fmt.Sprintf(", %d leases reassigned", p.LeasesReassigned)
	}
	if p.CommitsFenced > 0 {
		line += fmt.Sprintf(", %d commits fenced", p.CommitsFenced)
	}
	if p.ETA > 0 {
		line += fmt.Sprintf(", ETA %s", p.ETA.Round(time.Second))
	}
	return line
}

// StartTicker launches a goroutine that writes the progress line to w
// every interval until the returned stop function is called. The
// ticker itself is stopped via defer inside the goroutine, so it is
// released however the goroutine exits — the historical leak was a
// ticker owned by the caller surviving an early sweep return. Stop is
// idempotent and blocks until the goroutine has exited, so callers can
// `defer stop()` and know no ticker goroutine outlives the sweep.
func (m *Monitor) StartTicker(w io.Writer, interval time.Duration) (stop func()) {
	if m == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintln(w, m.Snapshot().Line())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}
