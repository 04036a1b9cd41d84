// Package trace records and replays allocation traces. A Recorder
// wraps any sim.Program and logs the rounds it plays (frees and
// allocation sizes) together with the placements and moves it
// observed; a Trace is serialized as one JSON document and replayed
// later against a different memory manager with Replayer.
//
// Replay reproduces the program side of the interaction (the request
// sequence); placements and moves during replay belong to the new
// manager and will generally differ from the recorded ones, which is
// the point: traces let you compare managers on identical request
// streams.
//
// Traces of *adaptive* programs (the adversaries, which react to the
// addresses the manager hands out and free objects the manager moves)
// replay only approximately: frees triggered by moves are replayed at
// the start of the following round, so against a different manager the
// M-bound can be exceeded and the engine will flag it. Record and
// replay is intended for the non-adaptive workload programs.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// Round is one recorded round: which of the program's objects were
// freed (by allocation ordinal, 0-based) and the sizes allocated.
type Round struct {
	FreeOrdinals []int64     `json:"free,omitempty"`
	AllocSizes   []word.Size `json:"alloc,omitempty"`
}

// Trace is a full recorded execution.
type Trace struct {
	Program string  `json:"program"`
	M       int64   `json:"m"`
	N       int64   `json:"n"`
	C       int64   `json:"c"`
	Rounds  []Round `json:"rounds"`
}

// Recorder wraps a program and records its request stream.
type Recorder struct {
	inner sim.Program
	trace Trace
	// ordinal maps engine object ids to allocation ordinals.
	ordinal map[heap.ObjectID]int64
	next    int64
	freeing []int64
}

var _ sim.Program = (*Recorder)(nil)

// NewRecorder wraps prog.
func NewRecorder(prog sim.Program) *Recorder {
	return &Recorder{inner: prog, ordinal: make(map[heap.ObjectID]int64)}
}

// Name implements sim.Program.
func (r *Recorder) Name() string { return r.inner.Name() + "+rec" }

// Step implements sim.Program.
func (r *Recorder) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	if r.trace.Rounds == nil {
		r.trace.Program = r.inner.Name()
		r.trace.M, r.trace.N, r.trace.C = v.Config.M, v.Config.N, v.Config.C
	}
	frees, allocs, done := r.inner.Step(v)
	rd := Round{AllocSizes: append([]word.Size(nil), allocs...)}
	rd.FreeOrdinals = append(rd.FreeOrdinals, r.freeing...)
	r.freeing = r.freeing[:0]
	for _, id := range frees {
		rd.FreeOrdinals = append(rd.FreeOrdinals, r.ord(id))
	}
	r.trace.Rounds = append(r.trace.Rounds, rd)
	return frees, allocs, done
}

func (r *Recorder) ord(id heap.ObjectID) int64 {
	o, ok := r.ordinal[id]
	if !ok {
		panic(fmt.Sprintf("trace: free of unrecorded object %d", id))
	}
	return o
}

// Placed implements sim.Program.
func (r *Recorder) Placed(id heap.ObjectID, s heap.Span) {
	r.ordinal[id] = r.next
	r.next++
	r.inner.Placed(id, s)
}

// Moved implements sim.Program. Free-on-move decisions by the inner
// program are recorded as frees attached to the *next* round, which
// replays them at the earliest legal point.
func (r *Recorder) Moved(id heap.ObjectID, from, to heap.Span) bool {
	freed := r.inner.Moved(id, from, to)
	if freed {
		r.freeing = append(r.freeing, r.ord(id))
	}
	return freed
}

// Result returns the recorded trace. Call after the run completes.
func (r *Recorder) Result() *Trace {
	t := r.trace
	return &t
}

// Replayer replays a recorded trace as a sim.Program.
type Replayer struct {
	trace *Trace
	round int
	ids   []heap.ObjectID // ordinal -> engine id in this run
	live  map[int64]bool
}

var _ sim.Program = (*Replayer)(nil)

// NewReplayer builds a program that replays t.
func NewReplayer(t *Trace) *Replayer {
	return &Replayer{trace: t, live: make(map[int64]bool)}
}

// Name implements sim.Program.
func (p *Replayer) Name() string { return p.trace.Program + "+replay" }

// Step implements sim.Program.
func (p *Replayer) Step(*sim.View) ([]heap.ObjectID, []word.Size, bool) {
	if p.round >= len(p.trace.Rounds) {
		return nil, nil, true
	}
	rd := p.trace.Rounds[p.round]
	p.round++
	var frees []heap.ObjectID
	for _, ord := range rd.FreeOrdinals {
		// Objects freed-on-move in this run may already be dead; skip
		// them (the recorded free was their original death).
		if !p.live[ord] {
			continue
		}
		p.live[ord] = false
		frees = append(frees, p.ids[ord])
	}
	return frees, rd.AllocSizes, p.round >= len(p.trace.Rounds)
}

// Placed implements sim.Program.
func (p *Replayer) Placed(id heap.ObjectID, _ heap.Span) {
	p.live[int64(len(p.ids))] = true
	p.ids = append(p.ids, id)
}

// Moved implements sim.Program: replays never free on move (the
// recorded stream already contains the equivalent frees).
func (p *Replayer) Moved(heap.ObjectID, heap.Span, heap.Span) bool { return false }

// WriteJSON serializes the trace as a single JSON document.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// ReadJSON parses a trace written by WriteJSON.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decoding JSON: %w", err)
	}
	return &t, nil
}
