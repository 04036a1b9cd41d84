package main

import (
	"time"

	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// The decorators below sit between the engine, the referee, the
// manager and the program, and time each call through the layers'
// public interfaces. They forward every call unchanged, so a traced
// run makes exactly the decisions an untraced one does.

// timedProgram times a program's Step (the round's decision) and its
// Placed/Moved callbacks, and marks round starts.
type timedProgram struct {
	p sim.Program
	t *pfTrace
}

func (w *timedProgram) Name() string { return w.p.Name() }

func (w *timedProgram) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	w.t.sampleHeap()
	t0 := time.Now()
	w.t.roundStarts = append(w.t.roundStarts, t0)
	frees, allocs, done := w.p.Step(v)
	w.t.step.add(time.Since(t0))
	return frees, allocs, done
}

func (w *timedProgram) Placed(id heap.ObjectID, s heap.Span) {
	t0 := time.Now()
	w.p.Placed(id, s)
	w.t.placed.add(time.Since(t0))
}

func (w *timedProgram) Moved(id heap.ObjectID, from, to heap.Span) bool {
	t0 := time.Now()
	freeNow := w.p.Moved(id, from, to)
	w.t.moved.add(time.Since(t0))
	return freeNow
}

// managerStats are the per-call timings of one manager boundary.
type managerStats struct {
	alloc, free, start durStat
	// moveAlloc and moveStart time the Mover calls the wrapped manager
	// makes during Allocate and StartRound; only the inner wrapper,
	// which hands the manager a timedMover, fills them.
	moveAlloc, moveStart durStat
}

// timedManager times Allocate and Free. When rec is set it also
// records the Allocate/Free stream for the heap replay.
type timedManager struct {
	m       sim.Manager
	st      *managerStats
	mv      *timedMover // nil: pass the caller's mover through untimed
	rec     *[]replayOp
	onReset func(sim.Config)
}

// timedCompactor adds StartRound for managers that implement
// sim.RoundCompactor. A wrapper must expose StartRound exactly when
// the manager it wraps does: the engine and the referee detect the
// method by type assertion, so hiding it would silently turn
// compaction off, and exposing it on a manager without one would have
// nothing to forward to.
type timedCompactor struct{ *timedManager }

func (w timedCompactor) StartRound(mv sim.Mover) {
	if w.mv != nil {
		w.mv.inner, w.mv.st = mv, &w.st.moveStart
		mv = w.mv
	}
	t0 := time.Now()
	w.m.(sim.RoundCompactor).StartRound(mv)
	w.st.start.add(time.Since(t0))
}

// wrapManager decorates m, keeping its sim.RoundCompactor-ness.
func wrapManager(m sim.Manager, st *managerStats, timeMoves bool, rec *[]replayOp, onReset func(sim.Config)) sim.Manager {
	w := &timedManager{m: m, st: st, rec: rec, onReset: onReset}
	if timeMoves {
		w.mv = &timedMover{}
	}
	if _, ok := m.(sim.RoundCompactor); ok {
		return timedCompactor{w}
	}
	return w
}

func (w *timedManager) Name() string { return w.m.Name() }

func (w *timedManager) Reset(cfg sim.Config) {
	if w.onReset != nil {
		w.onReset(cfg)
	}
	w.m.Reset(cfg)
}

func (w *timedManager) Allocate(id heap.ObjectID, size word.Size, mv sim.Mover) (word.Addr, error) {
	if w.mv != nil {
		w.mv.inner, w.mv.st = mv, &w.st.moveAlloc
		mv = w.mv
	}
	t0 := time.Now()
	addr, err := w.m.Allocate(id, size, mv)
	w.st.alloc.add(time.Since(t0))
	if w.rec != nil && err == nil {
		*w.rec = append(*w.rec, replayOp{addr: addr, size: size})
	}
	return addr, err
}

func (w *timedManager) Free(id heap.ObjectID, s heap.Span) {
	t0 := time.Now()
	w.m.Free(id, s)
	w.st.free.add(time.Since(t0))
	if w.rec != nil {
		*w.rec = append(*w.rec, replayOp{addr: s.Addr, size: -s.Size})
	}
}

// timedMover times the moves a manager makes. Allocate and StartRound
// are never re-entered, so one mover per wrapper is re-aimed per call.
type timedMover struct {
	inner sim.Mover
	st    *durStat
}

func (m *timedMover) Move(id heap.ObjectID, to word.Addr) (bool, error) {
	t0 := time.Now()
	freed, err := m.inner.Move(id, to)
	m.st.add(time.Since(t0))
	return freed, err
}

func (m *timedMover) Remaining() word.Size { return m.inner.Remaining() }

func (m *timedMover) Lookup(id heap.ObjectID) (heap.Span, bool) { return m.inner.Lookup(id) }

// replayOp is one recorded manager call: an allocation of size words
// placed at addr, or (size < 0) the free of -size words at addr.
type replayOp struct {
	addr word.Addr
	size word.Size
}
