// Package markcompact implements a classical stop-the-world
// mark-compact collector in the simulation model: allocation is
// first-fit over the free list, and whenever the compaction budget
// covers the whole live set, every object slides to the bottom of the
// heap in address order (the LISP-2 / "sliding" order, which preserves
// allocation order and produces a perfectly dense heap).
//
// With an unlimited budget (c = 0) this is the ideal full compactor
// whose heap never exceeds max-live — the "overhead factor 1" baseline
// the paper's introduction contrasts against. With a finite c it
// degenerates gracefully: full slides happen only as often as the
// budget allows, which is exactly the regime the paper's bounds govern.
package markcompact

import (
	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// Manager is the sliding mark-compact manager.
type Manager struct {
	mm.Base
	// scanBuf is the reused address-ordered object buffer for scans.
	scanBuf []heap.Object
}

var (
	_ sim.Manager        = (*Manager)(nil)
	_ sim.RoundCompactor = (*Manager)(nil)
)

// New returns an empty manager.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "mark-compact" }

// StartRound implements sim.RoundCompactor: run a full sliding
// compaction when the budget covers the live set and holes exist.
func (m *Manager) StartRound(mv sim.Mover) {
	if mv.Remaining() < m.LiveWords() {
		return
	}
	m.scanBuf = m.AppendObjectsByAddr(m.scanBuf)
	objs := m.scanBuf
	var frontier word.Addr
	fragmented := false
	for _, o := range objs {
		if o.Span.Addr != frontier {
			fragmented = true
			break
		}
		frontier = o.Span.End()
	}
	if !fragmented {
		return
	}
	frontier = 0
	for _, o := range objs {
		cur, ok := m.Objs.Get(o.ID)
		if !ok {
			continue
		}
		if cur.Addr != frontier {
			if mv.Remaining() < cur.Size {
				return
			}
			removed, err := m.MoveObject(mv, o.ID, frontier)
			if err != nil {
				return
			}
			if removed {
				continue
			}
		}
		frontier += cur.Size
	}
}

// Allocate implements sim.Manager (first-fit).
func (m *Manager) Allocate(id heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	addr, err := m.FS.AllocFirstFit(size)
	if err != nil {
		return 0, err
	}
	m.Record(id, heap.Span{Addr: addr, Size: size})
	return addr, nil
}

func init() {
	mm.Register("mark-compact", func() sim.Manager { return New() })
}
