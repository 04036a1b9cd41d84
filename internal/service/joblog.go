package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
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
// from their own offset. Ending the log unblocks every tail.
//
// A job whose terminal record is committed to the store ends its log
// by moving it to disk: the file holds every line, the terminal state
// line included, and the lines held in memory go. Readers that were
// following the log in memory continue in the file at the line they
// had reached.
type eventLog struct {
	mu        sync.Mutex
	notify    chan struct{}
	lines     [][]byte
	truncated bool
	closed    bool
	file      string // the whole stream, once it has moved to disk
}

func newEventLog() *eventLog {
	return &eventLog{notify: make(chan struct{})}
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
	if !essential && len(l.lines) >= DefaultEventLogLimit {
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
// events, the cell index) into the canonical obs NDJSON line. A log
// that would drop the line drops the event before encoding it.
func (l *eventLog) appendObs(cell int, ev obs.Event) {
	l.mu.Lock()
	if l.closed || len(l.lines) >= DefaultEventLogLimit {
		l.appendLocked(nil, false) // dropped: at most the truncation marker
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
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

// stateLocked encodes s as the log's next line. Callers hold l.mu.
func (l *eventLog) stateLocked(s stateLine) []byte {
	s.Seq = len(l.lines)
	data, err := json.Marshal(s)
	if err != nil {
		// A stateLine is a closed struct of marshalable fields; this
		// cannot fail absent a programming error.
		panic("service: marshaling state line: " + err.Error())
	}
	return append(data, '\n')
}

// appendState retains one state-transition line. State lines are
// essential: they survive truncation, and the terminal one is every
// tail's EOF marker.
func (l *eventLog) appendState(s stateLine) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(l.stateLocked(s), true)
}

// withState returns the whole stream as it reads once s is appended,
// without appending it: what a settling job commits to its store
// before it ends the log with the same line.
func (l *eventLog) withState(s stateLine) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return bytes.Join(append(l.lines[:len(l.lines):len(l.lines)], l.stateLocked(s)), nil)
}

// isTruncated reports whether the log has dropped lines — surfaced
// in Status.LogTruncated so clients learn about the gap without
// scanning the stream for the marker line.
func (l *eventLog) isTruncated() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// size is the byte count of the lines held in memory — what /events
// serves from offset 0 until the stream moves to disk.
func (l *eventLog) size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, ln := range l.lines {
		n += int64(len(ln))
	}
	return n
}

// end closes the stream with its terminal state line s: appended in
// memory or, when file is set, read from file, which already holds
// the whole stream (withState's lines); the lines held in memory then
// go. Tails drain what is left and return.
func (l *eventLog) end(s stateLine, file string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if file != "" {
		l.lines, l.file = nil, file
	} else {
		l.appendLocked(l.stateLocked(s), true)
	}
	l.closed = true
	l.wake()
}

// serve writes the stream to w from line from on, until it ends or
// ctx does: lines held in memory as they arrive, calling flush after
// each batch, and, once the stream is on disk, the rest of its file.
func (l *eventLog) serve(ctx context.Context, w io.Writer, flush func(), from int) error {
	for {
		l.mu.Lock()
		lines, file, closed, notify := l.lines, l.file, l.closed, l.notify
		l.mu.Unlock()
		switch {
		case file != "":
			return copyLines(w, file, from)
		case from < len(lines):
			// Lines are never mutated after append, so the slice
			// stays valid outside the lock.
			for _, ln := range lines[from:] {
				if _, err := w.Write(ln); err != nil {
					return err
				}
			}
			from = len(lines)
			flush()
		case closed:
			return nil
		default:
			select {
			case <-ctx.Done():
				return context.Cause(ctx)
			case <-notify:
			}
		}
	}
}

// copyLines streams the file at path to w from its line from on.
func copyLines(w io.Writer, path string, from int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for from > 0 {
		switch _, err := br.ReadSlice('\n'); {
		case err == nil:
			from--
		case errors.Is(err, io.EOF):
			return nil
		case !errors.Is(err, bufio.ErrBufferFull):
			return err
		}
	}
	_, err = br.WriteTo(w)
	return err
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
