package service

import (
	"context"
	"encoding/json"
	"strconv"
	"sync"

	"compaction/internal/obs"
)

// DefaultEventLogLimit bounds a job's retained stream lines. A
// bounded log keeps a misconfigured StreamAll job from holding the
// whole event firehose in memory; state lines are always retained so
// a truncated stream still reaches its terminal line.
const DefaultEventLogLimit = 1 << 16

// The job-stream wire format
// --------------------------
//
// A job's stream is a sequence of JSON lines, served verbatim as
// NDJSON by GET /v1/jobs/{id}/events. Three line families:
//
//   - engine events: the obs NDJSON schema (obs.AppendNDJSON) with a
//     "seq" stream sequence number and the grid "cell" spliced in
//     front: {"seq":7,"cell":0,"ev":"round","round":3,...}
//   - scheduler events (retry, checkpoint, degraded): the obs schema
//     with "seq" spliced in front; these already carry their cell:
//     {"seq":9,"ev":"checkpoint","round":-1,"cell":0,"completed":1}
//   - job lines: {"seq":N,"ev":"state",...} transitions and a
//     {"seq":N,"ev":"log-truncated"} marker when the limit was hit.
//
// Sequence numbers are dense (the line's index in the stream), so a
// consumer can resume from any point with ?from=N.
// For a fixed spec with parallelism 1 the whole stream is
// deterministic, byte for byte; the golden replay tests pin it.

// stateLine is the "ev":"state" wire line. Field order is the schema.
type stateLine struct {
	Seq      int    `json:"seq"`
	Ev       string `json:"ev"` // always "state"
	State    State  `json:"state"`
	Cells    int    `json:"cells"`
	Done     int64  `json:"done"`
	Failed   int64  `json:"failed"`
	Restored int64  `json:"restored,omitempty"`
	Error    string `json:"error,omitempty"`
}

// eventLog is a job's append-only stream log with blocking tails. Each
// retained line is one JSON document with its trailing newline. It has
// an obs.Tracer-compatible writer side (safe for concurrent emitters —
// sweep workers share it) and any number of readers each consuming
// from their own offset. Closing the log unblocks every tail.
type eventLog struct {
	mu        sync.Mutex
	notify    chan struct{}
	lines     [][]byte
	limit     int
	truncated bool
	closed    bool
}

func newEventLog(limit int) *eventLog {
	if limit <= 0 {
		limit = DefaultEventLogLimit
	}
	return &eventLog{notify: make(chan struct{}), limit: limit}
}

// wake signals every waiting tail. Callers hold l.mu.
func (l *eventLog) wake() {
	close(l.notify)
	l.notify = make(chan struct{})
}

// appendLocked retains one line. Non-essential lines are dropped once
// the limit is reached (with a one-time marker line); essential lines
// (state transitions) are always retained so every stream terminates
// with its final state.
func (l *eventLog) appendLocked(line []byte, essential bool) {
	if l.closed {
		return
	}
	if !essential && len(l.lines) >= l.limit {
		if !l.truncated {
			l.truncated = true
			seq := strconv.Itoa(len(l.lines))
			l.lines = append(l.lines, []byte(`{"seq":`+seq+`,"ev":"log-truncated"}`+"\n"))
			l.wake()
		}
		return
	}
	l.lines = append(l.lines, line)
	l.wake()
}

// appendObs retains one obs event, splicing seq (and, for engine
// events, the cell index) into the canonical obs NDJSON line.
func (l *eventLog) appendObs(cell int, ev obs.Event) {
	obsLine := obs.AppendNDJSON(nil, ev) // {"ev":...}\n
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := make([]byte, 0, len(obsLine)+32)
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendInt(buf, int64(len(l.lines)), 10)
	switch ev.Kind {
	case obs.EvRetry, obs.EvCheckpoint, obs.EvDegraded:
		// Scheduler events carry their cell in the obs schema already.
	default:
		buf = append(buf, `,"cell":`...)
		buf = strconv.AppendInt(buf, int64(cell), 10)
	}
	buf = append(buf, ',')
	buf = append(buf, obsLine[1:]...) // drop the '{', keep the '\n'
	l.appendLocked(buf, false)
}

// appendState retains one state-transition line and returns its
// sequence number. State lines are essential: they survive
// truncation, and the terminal one is every tail's EOF marker.
func (l *eventLog) appendState(s stateLine) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.Seq = len(l.lines)
	data, err := json.Marshal(s)
	if err != nil {
		// A stateLine is a closed struct of marshalable fields; this
		// cannot fail absent a programming error.
		panic("service: marshaling state line: " + err.Error())
	}
	l.appendLocked(append(data, '\n'), true)
}

// isTruncated reports whether the log has dropped lines — surfaced
// in Status.LogTruncated so clients learn about the gap without
// scanning the stream for the marker line.
func (l *eventLog) isTruncated() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// size is the byte count of the retained lines — what /events serves
// from offset 0.
func (l *eventLog) size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, ln := range l.lines {
		n += int64(len(ln))
	}
	return n
}

// close ends the stream: tails drain what is retained and return.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.wake()
}

// next returns the lines from offset on. When none are available it
// blocks until more arrive, the log closes (ok=false once drained),
// or the context ends. The returned slice is stable: lines are never
// mutated after append.
func (l *eventLog) next(ctx context.Context, from int) (lines [][]byte, ok bool, err error) {
	for {
		l.mu.Lock()
		if from < len(l.lines) {
			lines = l.lines[from:]
			l.mu.Unlock()
			return lines, true, nil
		}
		if l.closed {
			l.mu.Unlock()
			return nil, false, nil
		}
		notify := l.notify
		l.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, false, context.Cause(ctx)
		case <-notify:
		}
	}
}

// schedTracer adapts the log to the sweep scheduler's tracer slot.
// The scheduler serializes its own emissions; the log's mutex makes
// it safe anyway (engine tracers interleave with it).
type schedTracer struct{ log *eventLog }

func (t schedTracer) Emit(ev obs.Event) { t.log.appendObs(ev.Cell, ev) }

// cellTracer is the engine-side tracer for one cell: it filters by
// the job's stream mode and stamps the cell index. Safe for
// concurrent use across cells (the log locks), as sweep.Options.
// EngineTracer requires.
type cellTracer struct {
	log  *eventLog
	cell int
	all  bool // StreamAll: keep every engine event, not just rounds
}

func (t cellTracer) Emit(ev obs.Event) {
	if !t.all && ev.Kind != obs.EvRound {
		return
	}
	t.log.appendObs(t.cell, ev)
}
