// Package obs is the observability layer of the simulation: typed
// event tracing, a metrics registry with an atomic hot path, and the
// sinks that turn both into artifacts (NDJSON event logs, Chrome
// trace_event JSON for Perfetto, per-round time series, and the
// Prometheus text exposition of the registry).
//
// The design contract is zero overhead when disabled: every emission
// site in the engine and the managers is guarded by a single nil
// check, and the enabled hot path (ring buffer writes, atomic metric
// updates) performs no allocations, so tracing can stay on for
// paper-scale runs. internal/sim pins both properties in
// TestEngineRoundIsAllocFree.
//
// Event taxonomy (see DESIGN.md §9 for the full schema):
//
//	alloc        the engine placed a new object
//	free         the program freed an object (including free-on-move)
//	move         the manager relocated a live object (engine-validated)
//	move-reject  a manager-initiated move was refused (budget, overlap)
//	round        a round boundary: HS, live, budget, cumulative s and q
//	sweep        the referee ran a full-heap invariant sweep
//	retry        a sweep cell failed transiently and is being re-run
//	checkpoint   a sweep durably journaled a completed cell
//	degraded     a sweep cell exhausted its retries and became a hole
//
// Wall-clock durations (Event.Nanos) are deliberately excluded from
// the NDJSON and Chrome sinks' deterministic fields: two identical
// seeded runs emit byte-identical streams, which the replay tests
// assert.
package obs

import (
	"compaction/internal/heap"
	"compaction/internal/word"
)

// EventKind discriminates the typed events of the pipeline.
type EventKind uint8

// The event kinds, in the order they were added. The string forms are
// part of the NDJSON schema; changing them breaks committed goldens.
const (
	EvAlloc EventKind = iota
	EvFree
	EvMove
	EvMoveReject
	EvRound
	EvSweep
	EvRetry
	EvCheckpoint
	EvDegraded
)

// String returns the schema name of the kind.
func (k EventKind) String() string {
	switch k {
	case EvAlloc:
		return "alloc"
	case EvFree:
		return "free"
	case EvMove:
		return "move"
	case EvMoveReject:
		return "move-reject"
	case EvRound:
		return "round"
	case EvSweep:
		return "sweep"
	case EvRetry:
		return "retry"
	case EvCheckpoint:
		return "checkpoint"
	case EvDegraded:
		return "degraded"
	}
	return "unknown"
}

// Event is one observation. It is a flat value type so emission sites
// can construct it on the stack and sinks can store it in preallocated
// ring buffers without boxing.
//
// Field use by kind:
//
//   - alloc/free: ID, Addr (span start), Size; Round is the 0-based
//     round the operation happened in.
//   - move/move-reject: ID, From (source), Addr (destination), Size.
//     move-reject events come from the manager side (mm.Base), which
//     does not know the round; their Round is -1.
//   - round: Round (0-based index of the round just finished), Live,
//     Allocated (cumulative s), Moved (cumulative q), HighWater (HS),
//     Budget (remaining movable words), Nanos (wall clock of the
//     round; excluded from deterministic sinks).
//   - sweep: Round, Violations (total observed so far), Live.
//   - retry/degraded: Cell (grid index), Attempt (1-based attempt that
//     just failed / total attempts spent). Round is -1: these come from
//     the sweep scheduler, outside any run.
//   - checkpoint: Cell (grid index just journaled), Count (completed
//     cells durable in the journal so far). Round is -1.
type Event struct {
	Kind  EventKind
	Round int
	ID    heap.ObjectID
	From  word.Addr
	Addr  word.Addr
	Size  word.Size

	Live       word.Size
	Allocated  word.Size
	Moved      word.Size
	HighWater  word.Addr
	Budget     word.Size
	Violations int
	Nanos      int64

	// Sweep-scheduler fields (retry, checkpoint, degraded).
	Cell    int
	Attempt int
	Count   int64
}

// Tracer receives events. Implementations used on the engine hot path
// (Ring, SimMetrics, SeriesRecorder) must not allocate in Emit; file
// sinks (NDJSONSink, ChromeSink) may.
//
// Tracers are not required to be safe for concurrent use: the engine
// is single-goroutine per run, and parallel sweeps attach a tracer per
// worker, not a shared one.
type Tracer interface {
	Emit(ev Event)
}

// TracerSetter is implemented by pipeline components that can emit
// their own events (managers embedding mm.Base, the check referee).
// CLIs thread one tracer through every component that accepts it.
type TracerSetter interface {
	SetTracer(Tracer)
}

// multi fans one event out to several tracers.
type multi []Tracer

//compactlint:noalloc
func (m multi) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// Tee combines tracers into one. Nil entries are dropped; Tee returns
// nil when nothing remains (so the caller's nil fast path still
// applies) and the tracer itself when only one remains.
func Tee(ts ...Tracer) Tracer {
	var out multi
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// Ring is a bounded single-writer event buffer: the newest events win,
// the oldest are overwritten. Emit never allocates, which makes Ring
// the tracer of choice for always-on flight recording.
type Ring struct {
	buf   []Event
	total uint64
}

// NewRing returns a ring holding the last n events (n must be
// positive).
func NewRing(n int) *Ring {
	if n <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return &Ring{buf: make([]Event, n)}
}

// Emit implements Tracer.
//
//compactlint:noalloc
func (r *Ring) Emit(ev Event) {
	r.buf[r.total%uint64(len(r.buf))] = ev
	r.total++
}

// Total returns how many events were emitted over the ring's lifetime
// (including overwritten ones).
func (r *Ring) Total() uint64 { return r.total }

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	n := uint64(len(r.buf))
	if r.total <= n {
		return append([]Event(nil), r.buf[:r.total]...)
	}
	out := make([]Event, 0, n)
	start := r.total % n
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}

// Reset forgets all events, retaining the buffer.
func (r *Ring) Reset() { r.total = 0 }

// Recorder is an unbounded append-only tracer for tests and short
// runs where the complete stream is needed in memory.
type Recorder struct {
	Events []Event
}

// Emit implements Tracer.
func (r *Recorder) Emit(ev Event) { r.Events = append(r.Events, ev) }

// Reset forgets all events, retaining capacity.
func (r *Recorder) Reset() { r.Events = r.Events[:0] }
