package service

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"

	"compaction/internal/obs/heapscope"
	"compaction/internal/sweep"
)

// State is a job's lifecycle position. Transitions are one-way:
// queued → running → one of the terminal states (done, failed,
// canceled). A job interrupted by a server shutdown is not a
// transition at all — nothing terminal is persisted, so the job comes
// back queued on the next boot and resumes from its journal.
type State string

// The job states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	// StateDone: the sweep ran to the end. Individual cells may still
	// have failed — Status.Failed counts the holes, and the result CSV
	// carries them in its error column.
	StateDone State = "done"
	// StateFailed: the job could not run or the sweep infrastructure
	// failed (bad grid expansion, unusable checkpoint journal).
	StateFailed State = "failed"
	// StateCanceled: the tenant canceled the job.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// errCanceledByUser is the cancellation cause of a DELETE — it is what
// distinguishes a tenant's cancel (terminal, persisted) from a server
// shutdown (not terminal; the job resumes on the next boot).
var errCanceledByUser = errors.New("service: job canceled by request")

// Status is the wire form of GET /v1/jobs/{id}. Progress fields come
// from the job's sweep monitor while it runs and are frozen into the
// persisted terminal record when it ends.
type Status struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	Cells  int    `json:"cells"`
	Done   int64  `json:"done"`
	Failed int64  `json:"failed"`
	// Restored counts cells satisfied from the checkpoint journal
	// instead of a fresh run — nonzero exactly when the job resumed.
	Restored    int64 `json:"restored"`
	Skipped     int64 `json:"skipped,omitempty"`
	Retries     int64 `json:"retries,omitempty"`
	Checkpoints int64 `json:"checkpoints,omitempty"`
	ETAMillis   int64 `json:"eta_ms,omitempty"`
	// LogTruncated reports that the job's stream log hit its retention
	// limit and dropped non-essential lines (a "log-truncated" marker
	// line sits in the stream where the drop began).
	LogTruncated bool   `json:"log_truncated,omitempty"`
	Error        string `json:"error,omitempty"`
	Spec         Spec   `json:"spec"`
}

// Job is one admitted submission: its spec, stream log, monitor, and
// the cancelable context its sweep runs under.
//
// A terminal job serves four bodies: /result, /heatmap, /heapstats and
// /events. Once its terminal record is committed to the store it
// keeps none of them: dir names its store directory and each is
// streamed from the file there. A job settled without a store keeps
// them in memory (resultCSV, hmDoc, hsDoc and the log's lines), and
// the server keeps such jobs only while their bytes fit a budget.
type Job struct {
	id     string
	tenant string
	spec   Spec
	cells  int

	log    *eventLog
	mon    *sweep.Monitor
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu        sync.Mutex
	state     State
	errMsg    string
	resultCSV []byte  // set at terminal when outcomes exist and dir is not
	final     *Status // frozen terminal status (also recovered from disk)
	// dir is the job's store directory once its terminal bodies are
	// there. It is written holding both hmu and mu, so either lock
	// reads it.
	dir string

	// Heap introspection (scope nil when the spec disables it). A
	// cell holds its sampler only while it runs; when the cell settles
	// the job keeps the sampler's final Stats and artifact and drops
	// the sampler. At the terminal transition the combined document
	// and the /heapstats body are frozen, and the per-cell state they
	// were built from goes.
	hmu   sync.Mutex
	scope []cellScope
	hmDoc []byte
	hsDoc []byte
}

// cellScope is one cell's heap introspection state.
type cellScope struct {
	sam   *heapscope.Sampler // the running attempt's sampler
	stats *heapscope.Stats   // the last attempt's final summary
	doc   []byte             // the settled artifact
}

// Cancel requests cooperative cancellation on behalf of the tenant.
// It is idempotent and a no-op on terminal jobs.
func (j *Job) Cancel() { j.cancel(errCanceledByUser) }

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status snapshots the job for serving. Live jobs read the monitor's
// gauges; terminal jobs return the frozen record.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.final != nil {
		return *j.final
	}
	st := Status{
		ID: j.id, Tenant: j.tenant, State: j.state,
		Cells: j.cells, Spec: j.spec,
	}
	p := j.mon.Snapshot()
	st.Done, st.Failed, st.Restored = p.Done, p.Failed, p.Restored
	st.Skipped, st.Retries, st.Checkpoints = p.Skipped, p.Retries, p.Checkpoints
	st.ETAMillis = p.ETA.Milliseconds()
	st.LogTruncated = j.log.isTruncated()
	st.Error = j.errMsg
	return st
}

// setRunning transitions queued → running and streams the state line.
func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	j.log.appendState(stateLine{Ev: "state", State: StateRunning, Cells: j.cells})
}

// terminal builds the job's terminal status from the sweep's final
// progress, without publishing it: the server persists it first.
func (j *Job) terminal(state State, errMsg string) Status {
	p := j.mon.Snapshot()
	return Status{
		ID: j.id, Tenant: j.tenant, State: state,
		Cells: j.cells, Spec: j.spec,
		Done: p.Done, Failed: p.Failed, Restored: p.Restored,
		Skipped: p.Skipped, Retries: p.Retries, Checkpoints: p.Checkpoints,
		LogTruncated: j.log.isTruncated(),
		Error:        errMsg,
	}
}

// stateLine is the stream's state line for status st.
func (j *Job) stateLine(st Status) stateLine {
	return stateLine{
		Ev: "state", State: st.State, Cells: j.cells,
		Done: st.Done, Failed: st.Failed, Restored: st.Restored,
		Error: st.Error,
	}
}

// publish freezes the job in terminal status st: status reads return
// it from now on, and the stream ends with st's state line. With dir
// set, the job's bodies are in its store directory and the frozen
// heatmap bodies go; events then names the file holding the whole
// stream, or is empty for a job whose stream ends in memory. Without
// dir the job keeps resultCSV and its frozen heatmap bodies.
func (j *Job) publish(st Status, resultCSV []byte, dir, events string) {
	j.hmu.Lock()
	j.mu.Lock()
	j.state = st.State
	j.errMsg = st.Error
	j.final = &st
	j.dir = dir
	if dir == "" {
		j.resultCSV = resultCSV
	} else {
		j.hmDoc, j.hsDoc = nil, nil
	}
	j.mu.Unlock()
	j.hmu.Unlock()
	j.log.end(j.stateLine(st), events)
}

// result returns the terminal CSV held in memory, or the path of the
// file holding it; both are empty for a job held in memory without a
// result.
func (j *Job) result() (csv []byte, path string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dir != "" {
		return nil, filepath.Join(j.dir, resultFile)
	}
	return j.resultCSV, ""
}

// initHeatmaps arms per-cell heap introspection for n cells.
func (j *Job) initHeatmaps(n int) {
	j.hmu.Lock()
	j.scope = make([]cellScope, n)
	j.hmu.Unlock()
}

// setSampler installs the cell's sampler for the current attempt. A
// retry replaces the failed attempt's sampler, so a retried cell never
// double-counts rounds.
func (j *Job) setSampler(cell int, sam *heapscope.Sampler) {
	j.hmu.Lock()
	defer j.hmu.Unlock()
	if cell >= 0 && cell < len(j.scope) {
		j.scope[cell].sam = sam
	}
}

// settleSampler ends the cell's sampler's life: the job keeps its
// final Stats and, when keepDoc, its artifact, and drops the sampler.
// It returns the artifact kept, if any.
func (j *Job) settleSampler(cell int, keepDoc bool) []byte {
	j.hmu.Lock()
	defer j.hmu.Unlock()
	if cell < 0 || cell >= len(j.scope) || j.scope[cell].sam == nil {
		return nil
	}
	c := &j.scope[cell]
	st := c.sam.Stats()
	c.stats = &st
	if keepDoc {
		c.doc = c.sam.AppendJSON(nil)
	}
	c.sam = nil
	return c.doc
}

// setCellHeatmap installs a restored cell's artifact bytes.
func (j *Job) setCellHeatmap(cell int, data []byte) {
	j.hmu.Lock()
	if cell >= 0 && cell < len(j.scope) {
		j.scope[cell].doc = data
	}
	j.hmu.Unlock()
}

// freezeHeap installs the terminal combined document and /heapstats
// body, assembled from the settled cells only, and drops the per-cell
// state. From this point both endpoints serve exactly these bytes,
// which is what makes a terminal job's answers byte-stable across
// reads and restarts. It returns nil bodies for a job without heap
// introspection.
func (j *Job) freezeHeap() (heatmap, heapstats []byte) {
	j.hmu.Lock()
	defer j.hmu.Unlock()
	if j.scope == nil {
		return nil, nil
	}
	j.hmDoc = j.assembleLocked(false)
	j.hsDoc = j.heapStatsLocked()
	j.scope = nil
	return j.hmDoc, j.hsDoc
}

// heatmapJSON assembles the job's combined heatmap document:
//
//	{"v":1,"job":"<id>","cells":[<heapscope doc>|null,...]}
//
// Terminal jobs serve their frozen bytes, or the path of the file
// holding them. Live jobs assemble from the settled cells' artifacts,
// falling back to the running cells' samplers so the dashboard sees
// fragmentation evolve mid-run; cells not yet started, failed or
// without a sampler are null. A job with heap introspection disabled
// has no document: both results are empty, or path names no file.
func (j *Job) heatmapJSON() (doc []byte, path string) {
	j.hmu.Lock()
	defer j.hmu.Unlock()
	switch {
	case j.dir != "":
		return nil, filepath.Join(j.dir, heatmapFile)
	case j.hmDoc != nil:
		return j.hmDoc, ""
	case j.scope != nil:
		return j.assembleLocked(true), ""
	}
	return nil, ""
}

// assembleLocked builds the combined document from per-cell state;
// useLive lets cells without a final artifact fall back to their
// running sampler's current state. Callers hold hmu.
func (j *Job) assembleLocked(useLive bool) []byte {
	doc := append([]byte(`{"v":1,"job":"`), j.id...)
	doc = append(doc, `","cells":[`...)
	for i := range j.scope {
		if i > 0 {
			doc = append(doc, ',')
		}
		switch c := &j.scope[i]; {
		case c.doc != nil:
			doc = append(doc, c.doc...)
		case useLive && c.sam != nil:
			doc = c.sam.AppendJSON(doc)
		default:
			doc = append(doc, `null`...)
		}
	}
	return append(doc, ']', '}')
}

// heapStatsJSON returns the job's /heapstats body,
// {"cells":[{...}|null,...]}: frozen bytes (or the path of the file
// holding them) once terminal, otherwise one entry per cell from its
// running sampler or, once it settled, the summary kept then. Cells
// without a sampler in this process (not started, restored from a
// journal) are null. A job with heap introspection disabled, or
// settled by a build that did not persist the body, has none: both
// results are empty, or path names no file.
func (j *Job) heapStatsJSON() (body []byte, path string) {
	j.hmu.Lock()
	defer j.hmu.Unlock()
	switch {
	case j.dir != "":
		return nil, filepath.Join(j.dir, heapStatsFile)
	case j.hsDoc != nil:
		return j.hsDoc, ""
	case j.scope != nil:
		return j.heapStatsLocked(), ""
	}
	return nil, ""
}

// heapStatsLocked encodes the per-cell summaries. Callers hold hmu.
func (j *Job) heapStatsLocked() []byte {
	cells := make([]*heapscope.Stats, len(j.scope))
	for i := range j.scope {
		switch c := &j.scope[i]; {
		case c.sam != nil:
			st := c.sam.Stats()
			cells[i] = &st
		case c.stats != nil:
			cells[i] = c.stats
		}
	}
	// Stats holds integers only, so Marshal cannot fail. The body ends
	// in a newline, like every body writeJSON serves.
	body, _ := json.Marshal(struct {
		Cells []*heapscope.Stats `json:"cells"`
	}{cells})
	return append(body, '\n')
}

// retainedBytes is what a terminal job keeps in memory to serve: its
// frozen heatmap and /heapstats bodies, result CSV and stream lines;
// nothing once they are in the store.
func (j *Job) retainedBytes() int64 {
	j.hmu.Lock()
	n := len(j.hmDoc) + len(j.hsDoc)
	j.hmu.Unlock()
	j.mu.Lock()
	n += len(j.resultCSV)
	j.mu.Unlock()
	return int64(n) + j.log.size()
}
