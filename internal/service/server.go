// Package service is the resident simulation service behind compactd:
// a job API over the sweep engine. Tenants submit simulation and sweep
// specs; the server admits them against per-tenant quotas, runs them
// on a bounded worker pool with per-job checkpoint journals, streams
// their event series live as NDJSON, and persists enough that a killed
// server resumes every acknowledged job on the next boot with
// byte-identical results.
package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"compaction/internal/obs"
	"compaction/internal/obs/heapscope"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"
)

// DefaultMaxActive is the default bound on concurrently *running*
// jobs (admitted jobs beyond it queue).
const DefaultMaxActive = 2

// maxHeldBytes bounds what terminal jobs settled without a store hold
// in memory to serve (Job.retainedBytes). Past it the server forgets
// the oldest such jobs entirely; the newest is always kept.
const maxHeldBytes = 64 << 20

// Config configures a Server.
type Config struct {
	// Dir is the data directory for restart-durable jobs. Empty runs
	// the server ephemeral: no persistence, no resume.
	Dir string
	// Tenants is the admitted tenant set. Empty runs the server open:
	// no authentication, every request is the "public" tenant with
	// default quotas.
	Tenants []Tenant
	// MaxActive bounds concurrently running jobs; <= 0 selects
	// DefaultMaxActive.
	MaxActive int
}

// Server is the resident simulation service. Construct with New, arm
// with Start (which also performs boot recovery), serve Handler, and
// shut down by canceling the Start context and calling Wait.
type Server struct {
	store     store
	tenants   map[string]Tenant // by token; empty = open mode
	public    Tenant
	maxActive int

	// reg holds the service metrics; /metrics/prom serves it.
	reg     *obs.Registry
	mSubmit *obs.Counter
	mReject *obs.Counter
	mDone   *obs.Counter
	mFail   *obs.Counter
	mCancel *obs.Counter
	mQueue  *obs.Gauge
	mRun    *obs.Gauge
	// mRetained counts the bytes terminal jobs keep in memory to serve
	// (Job.retainedBytes).
	mRetained *obs.Gauge

	ctx context.Context
	sem chan struct{}
	wg  sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	usage  map[string]*usage
	nextID int
	// held lists the terminal jobs that keep their bodies in memory,
	// oldest first, and heldBytes is what they keep.
	held      []heldJob
	heldBytes int64
}

// heldJob is a terminal job holding its bodies in memory.
type heldJob struct {
	id    string
	bytes int64
}

// New builds a Server from its configuration.
func New(cfg Config) *Server {
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = DefaultMaxActive
	}
	reg := obs.NewRegistry()
	s := &Server{
		store:     store{dir: cfg.Dir},
		tenants:   make(map[string]Tenant),
		public:    Tenant{Name: "public"}.withDefaults(),
		maxActive: cfg.MaxActive,
		reg:       reg,
		sem:       make(chan struct{}, cfg.MaxActive),
		jobs:      make(map[string]*Job),
		usage:     make(map[string]*usage),
		nextID:    1,
	}
	for _, t := range cfg.Tenants {
		s.tenants[t.Token] = t.withDefaults()
	}
	s.mSubmit = reg.Counter("service.jobs_submitted", "Jobs admitted and acknowledged.")
	s.mReject = reg.Counter("service.jobs_rejected", "Submissions refused by their tenant's job or cell quota.")
	s.mDone = reg.Counter("service.jobs_done", "Jobs settled done, cell holes included.")
	s.mFail = reg.Counter("service.jobs_failed", "Jobs settled failed by an infrastructure error.")
	s.mCancel = reg.Counter("service.jobs_canceled", "Jobs settled canceled by their tenant.")
	s.mQueue = reg.Gauge("service.jobs_queued", "Jobs waiting for a run slot.")
	s.mRun = reg.Gauge("service.jobs_running", "Jobs running now.")
	s.mRetained = reg.Gauge("service.retained_bytes", "Bytes of bodies that terminal jobs keep in memory to serve.")
	return s
}

// Start arms the server under ctx — every job context derives from it,
// so canceling ctx stops all work cooperatively — and performs boot
// recovery: settled jobs on disk come back terminal (status and
// results servable), owed jobs re-enqueue and resume from their
// checkpoint journals. It returns the per-job warnings of recovery
// (corrupt directories are skipped, never fatal).
func (s *Server) Start(ctx context.Context) []error {
	recov, maxID, warnings := s.store.load()
	s.mu.Lock()
	s.ctx = ctx
	if maxID >= s.nextID {
		s.nextID = maxID + 1
	}
	s.mu.Unlock()
	for _, r := range recov {
		if r.final != nil {
			s.adoptTerminal(r)
			continue
		}
		// Owed work: re-admit outside quota checking — admission was
		// granted when the job was acknowledged, and a shrunk quota
		// must not orphan a durable job.
		j := s.newJob(r.rec.ID, r.rec.Tenant, r.rec.Spec)
		s.mu.Lock()
		s.jobs[j.id] = j
		s.chargeLocked(r.rec.Tenant, j.cells)
		s.mu.Unlock()
		s.enqueue(j)
	}
	return warnings
}

// Wait blocks until every job goroutine has finished — after canceling
// the Start context this is the graceful-shutdown barrier that lets
// in-flight jobs reach their journals' last checkpoint.
func (s *Server) Wait() { s.wg.Wait() }

// newJob builds a Job in the queued state under the server context.
func (s *Server) newJob(id, tenant string, sp Spec) *Job {
	s.mu.Lock()
	ctx := s.ctx
	s.mu.Unlock()
	if ctx == nil {
		// Submissions are only reachable through Handler, documented to
		// require Start; this is a wiring error, not a runtime state.
		panic("service: Submit before Start")
	}
	jctx, cancel := context.WithCancelCause(ctx)
	j := &Job{
		id: id, tenant: tenant, spec: sp, cells: sp.CellCount(),
		log:   newEventLog(),
		mon:   sweep.NewMonitor(nil),
		ctx:   jctx,
		state: StateQueued,
	}
	j.cancel = cancel
	j.log.appendState(stateLine{Ev: "state", State: StateQueued, Cells: j.cells})
	return j
}

// adoptTerminal registers a settled on-disk job without re-running it:
// it is published in its persisted terminal status, the way a job
// that settles in this process is, and serves every body from its
// store directory, byte for byte what the settling server served. A
// job settled by a build that wrote no heapstats.json keeps answering
// /heapstats with 404; one whose build wrote no events.ndjson streams
// its final state line alone.
func (s *Server) adoptTerminal(r recovered) {
	st := *r.final
	j := &Job{
		id: st.ID, tenant: st.Tenant, spec: st.Spec, cells: st.Cells,
		log: newEventLog(),
		mon: sweep.NewMonitor(nil),
	}
	j.ctx, j.cancel = context.WithCancelCause(s.ctx)
	j.cancel(nil)
	dir := s.store.jobDir(st.ID)
	events := filepath.Join(dir, eventsFile)
	if _, err := os.Stat(events); err != nil {
		events = ""
	}
	j.publish(st, nil, dir, events)
	s.mRetained.Add(j.retainedBytes())
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
}

// quotaError marks an admission rejection (mapped to 429 by the HTTP
// layer).
type quotaError struct{ error }

// Submit admits a validated spec for the tenant: quota check and
// charge (atomic under the server mutex, so rejections are
// deterministic), durable acknowledgment, then asynchronous execution.
func (s *Server) Submit(t Tenant, sp Spec) (*Job, error) {
	cells := sp.CellCount()
	s.mu.Lock()
	u := s.usageLocked(t.Name)
	if err := admit(t, *u, cells); err != nil {
		s.mu.Unlock()
		s.mReject.Inc()
		return nil, quotaError{err}
	}
	u.jobs++
	u.cells += cells
	id := formatJobID(s.nextID)
	s.nextID++
	s.mu.Unlock()

	j := s.newJob(id, t.Name, sp)
	// Acknowledge durably before exposing the job: a 201 means the job
	// survives a crash.
	if err := s.store.saveSubmission(jobRecord{ID: id, Tenant: t.Name, Spec: sp}); err != nil {
		s.mu.Lock()
		u.jobs--
		u.cells -= cells
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	s.mSubmit.Inc()
	s.enqueue(j)
	return j, nil
}

func (s *Server) usageLocked(tenant string) *usage {
	u, ok := s.usage[tenant]
	if !ok {
		u = &usage{}
		s.usage[tenant] = u
	}
	return u
}

func (s *Server) chargeLocked(tenant string, cells int) {
	u := s.usageLocked(tenant)
	u.jobs++
	u.cells += cells
}

// enqueue hands the job to its goroutine: wait for a run slot, run,
// settle.
func (s *Server) enqueue(j *Job) {
	s.wg.Add(1)
	s.mQueue.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case s.sem <- struct{}{}:
		case <-j.ctx.Done():
			s.mQueue.Add(-1)
			s.settle(j, nil, nil)
			return
		}
		s.mQueue.Add(-1)
		s.mRun.Add(1)
		outs, err := s.run(j)
		s.mRun.Add(-1)
		s.settle(j, outs, err)
		<-s.sem
	}()
}

// run executes the job's sweep under its context with its journal,
// monitor and stream tracers attached. It returns the outcomes (nil
// when the job never started) and the infrastructure error, if any.
func (s *Server) run(j *Job) ([]sweep.Outcome, error) {
	if j.ctx.Err() != nil {
		return nil, nil
	}
	j.setRunning()
	cells, err := j.spec.Cells()
	if err != nil {
		return nil, err
	}
	opts := j.spec.options()
	opts.Monitor = j.mon
	opts.Tracer = schedTracer{log: j.log}
	// Every cell attempt runs under pprof labels, so CPU and heap
	// profiles scraped from /debug/pprof slice by job, tenant and cell.
	opts.ProfileLabels = map[string]string{"job": j.id, "tenant": j.tenant}
	if j.spec.Stream != StreamOff {
		all := j.spec.Stream == StreamAll
		opts.EngineTracer = func(cell int) obs.Tracer {
			return cellTracer{log: j.log, cell: cell, all: all}
		}
	}
	if j.spec.heatmapOn() {
		hc := j.spec.heapscopeConfig()
		j.initHeatmaps(len(cells))
		opts.HeapEvery = j.spec.HeatmapEvery
		opts.HeapProbe = func(cell int) sim.HeapHook {
			sam, err := heapscope.New(hc)
			if err != nil {
				// A spec whose shape heapscope rejects (capacity not
				// divisible by shards) runs unprobed rather than
				// failing.
				s.warn(fmt.Errorf("service: job %s cell %d: %w", j.id, cell, err))
				return nil
			}
			j.setSampler(cell, sam)
			return sam.Sample
		}
		opts.OnCell = func(cell int, o sweep.Outcome) { s.cellSettled(j, cell, o) }
	}
	if s.store.durable() {
		jr, err := resume.Open(s.store.journalPath(j.id))
		if err != nil {
			// A journal we cannot read is a journal we must not
			// overwrite (Open refuses corrupt headers for the same
			// reason); fail the job and keep the evidence.
			return nil, err
		}
		opts.Journal = jr
	}
	return sweep.RunOpts(j.ctx, cells, opts)
}

// cellSettled is the sweep's OnCell observer: it finalizes the cell's
// heap introspection. A fresh cell's sampler hands over its summary
// and is dropped; a success also keeps its serialized artifact and (on a durable store) persists it — OnCell runs before
// the cell's journal checkpoint, so the artifact is on disk before the
// journal promises the cell never re-runs. Restored cells read the
// artifact those earlier writes left behind. Failed and skipped cells
// keep a null heatmap slot: a hole in the grid is a hole in the
// heatmap.
func (s *Server) cellSettled(j *Job, cell int, o sweep.Outcome) {
	if o.Restored {
		data, err := os.ReadFile(s.store.heatmapCellPath(j.id, cell))
		if err != nil {
			s.warn(fmt.Errorf("service: job %s cell %d: restoring heatmap: %w", j.id, cell, err))
			return
		}
		j.setCellHeatmap(cell, data)
		return
	}
	data := j.settleSampler(cell, o.Err == nil)
	if data != nil && s.store.durable() {
		if err := writeFileAtomic(s.store.heatmapCellPath(j.id, cell), data); err != nil {
			s.warn(fmt.Errorf("service: job %s cell %d: persisting heatmap: %w", j.id, cell, err))
		}
	}
}

// settle classifies how the job ended and persists accordingly:
//
//   - server shutdown: nothing terminal is written — the job's
//     acknowledgment and journal stay on disk, and the next boot
//     re-enqueues it to resume;
//   - tenant cancel: terminal canceled, persisted with any partial CSV;
//   - infrastructure error: terminal failed;
//   - otherwise: terminal done (cell holes stay visible in Failed and
//     the CSV error column), journal removed when hole-free.
//
// A terminal job's bodies are committed to the store and served from
// there; without a store (or when the commit fails) the job holds
// them in memory, under the server's budget for such jobs.
func (s *Server) settle(j *Job, outs []sweep.Outcome, infraErr error) {
	// Free the tenant's quota before the job turns terminal for its
	// clients: a tenant that sees it end may submit again at once.
	s.releaseQuota(j)
	cause := context.Cause(j.ctx)
	shutdown := j.ctx.Err() != nil && cause != errCanceledByUser

	var csv []byte
	if outs != nil {
		var buf bytes.Buffer
		if err := sweep.WriteCSV(&buf, outs); err == nil {
			csv = buf.Bytes()
		}
	}
	var state State
	var msg string
	switch {
	case shutdown:
		// Unblock stream tails; deliberately NOT persisted as terminal.
		j.publish(j.terminal(StateCanceled, "server shutting down; job resumes on next boot"), nil, "", "")
		return
	case cause == errCanceledByUser:
		s.mCancel.Inc()
		state, msg = StateCanceled, errCanceledByUser.Error()
	case infraErr != nil:
		s.mFail.Inc()
		state, msg = StateFailed, infraErr.Error()
	default:
		s.mDone.Inc()
		// Retire the resume state before the terminal transition
		// becomes observable, so "done" implies the journal is gone. A
		// crash in the window before status.json lands merely re-runs
		// the job from scratch on the next boot — safe, just unlucky.
		if len(sweep.Holes(outs)) == 0 {
			if err := s.store.removeResumeState(j.id, len(outs)); err != nil {
				s.warn(err)
			}
		}
		state = StateDone
	}
	// Like the result CSV, the heatmap document and /heapstats body
	// are assembled once here and then served verbatim forever.
	heatmap, heapstats := j.freezeHeap()
	// Persist, then publish: a client that sees the job terminal can
	// count on a restarted server adopting it, not running it again.
	st := j.terminal(state, msg)
	dir := s.persist(j, st, csv, heatmap, heapstats)
	if dir == "" {
		j.publish(st, csv, "", "")
		s.hold(j)
		return
	}
	j.publish(st, nil, dir, filepath.Join(dir, eventsFile))
}

// persist commits a settled job to the store, its whole stream
// included, and returns its directory, or "" when the job must keep
// its bodies in memory: the server has no store, or the commit
// failed.
func (s *Server) persist(j *Job, st Status, csv, heatmap, heapstats []byte) string {
	if !s.store.durable() {
		return ""
	}
	b := terminalBodies{csv, heatmap, heapstats, j.log.withState(j.stateLine(st))}
	if err := s.store.saveTerminal(st, b); err != nil {
		// Losing the terminal record means the next boot re-runs the
		// job, which is safe (the journal makes the re-run cheap and
		// byte-identical).
		s.warn(fmt.Errorf("service: job %s: persisting terminal state: %w", j.id, err))
		return ""
	}
	return s.store.jobDir(j.id)
}

// hold keeps a terminal job that holds its bodies in memory, and
// forgets the oldest such jobs while what they hold passes
// maxHeldBytes: they answer 404 and leave the job list. The newest is
// always kept.
func (s *Server) hold(j *Job) {
	n := j.retainedBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held = append(s.held, heldJob{j.id, n})
	s.heldBytes += n
	for len(s.held) > 1 && s.heldBytes > maxHeldBytes {
		old := s.held[0]
		s.held = s.held[1:]
		s.heldBytes -= old.bytes
		n -= old.bytes
		delete(s.jobs, old.id)
	}
	s.mRetained.Add(n)
}

func (s *Server) releaseQuota(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.usageLocked(j.tenant)
	u.jobs--
	u.cells -= j.cells
}

// warn counts background failures that have no request to fail; the
// metric makes them visible to scrapes.
func (s *Server) warn(error) {
	s.reg.Counter("service.warnings", "Non-fatal errors: unreadable or unwritable per-job state, unprobed cells.").Inc()
}

// job looks up a job visible to the tenant. In open mode every job is
// visible; with tenants configured, jobs are tenant-scoped.
func (s *Server) job(t Tenant, id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	if len(s.tenants) > 0 && j.tenant != t.Name {
		return nil, false
	}
	return j, true
}

// list returns the tenant's jobs' statuses in submission (job-ID)
// order.
func (s *Server) list(t Tenant) []Status {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if len(s.tenants) > 0 && j.tenant != t.Name {
			continue
		}
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
