// Package bpcompact implements the simple compacting collector A_c of
// Bendersky & Petrank (POPL 2011), the upper-bound construction quoted
// in Section 2.2 of Cohen & Petrank (PLDI 2013). It bump-allocates at
// the frontier and slides all live objects to the bottom of the heap
// whenever the accrued compaction budget covers the live space.
//
// For a c-partial run this guarantees heap size at most (c+1)·M:
// after a full slide the frontier equals the live space (≤ M), and
// between slides the frontier grows by at most the c·M words of
// allocation needed to accrue M words of budget.
package bpcompact

import (
	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// Manager is the (c+1)M bump-and-slide compactor.
type Manager struct {
	mm.Base
	// scanBuf is the reused address-ordered object buffer for scans.
	scanBuf  []heap.Object
	frontier word.Addr
}

var (
	_ sim.Manager        = (*Manager)(nil)
	_ sim.RoundCompactor = (*Manager)(nil)
)

// New returns an empty manager.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "bp-compact" }

// Reset implements sim.Manager.
func (m *Manager) Reset(cfg sim.Config) {
	m.Base.Reset(cfg)
	m.frontier = 0
}

// StartRound implements sim.RoundCompactor: slide everything down as
// soon as the budget covers the live words and a hole exists below the
// frontier.
func (m *Manager) StartRound(mv sim.Mover) {
	if m.fragmented() && mv.Remaining() >= m.LiveWords() {
		m.compact(mv)
	}
}

// fragmented reports whether any hole exists below the frontier.
func (m *Manager) fragmented() bool {
	return m.LiveWords() < m.frontier
}

// compact slides all objects to the bottom in address order.
func (m *Manager) compact(mv sim.Mover) {
	var front word.Addr
	m.scanBuf = m.AppendObjectsByAddr(m.scanBuf)
	for _, o := range m.scanBuf {
		if o.Span.Addr != front {
			if mv.Remaining() < o.Span.Size {
				break
			}
			removed, err := m.MoveObject(mv, o.ID, front)
			if err != nil {
				break
			}
			if removed {
				// The program freed the object in flight (P_F's rule);
				// its destination is free again, so do not advance.
				continue
			}
		}
		front += o.Span.Size
	}
	// Recompute the frontier: the end of the highest live object.
	m.frontier = 0
	m.Objs.Each(func(_ heap.ObjectID, s heap.Span) bool {
		if s.End() > m.frontier {
			m.frontier = s.End()
		}
		return true
	})
}

// Allocate implements sim.Manager by bump allocation at the frontier.
func (m *Manager) Allocate(id heap.ObjectID, size word.Size, mv sim.Mover) (word.Addr, error) {
	if m.frontier+size > m.Cfg.Capacity && m.fragmented() {
		// Out of room at the top: compact now regardless of the usual
		// trigger, with whatever budget is available.
		m.compact(mv)
	}
	s := heap.Span{Addr: m.frontier, Size: size}
	if err := m.FS.Reserve(s); err != nil {
		return 0, err
	}
	m.Record(id, s)
	m.frontier += size
	return s.Addr, nil
}

func init() {
	mm.Register("bp-compact", func() sim.Manager { return New() })
}
