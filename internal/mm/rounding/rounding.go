// Package rounding implements the size-rounding adapter of Section 2.2
// of the paper: any manager for power-of-two sizes can serve programs
// with arbitrary sizes by rounding each request up to the next power
// of two. Rounding at most doubles every object, so a manager with a
// heap bound of B(M) in the P2 world yields a bound of B(2M) for
// arbitrary programs — the transformation behind Robson's
// "2M(½·log n + 1)" curve in Figure 3.
//
// The wrapper keeps the inner manager in a consistent rounded world:
// it rounds sizes on allocation and presents the rounded spans back on
// free (rounding the engine's span again), so the inner bookkeeping
// never observes a non-power-of-two size.
package rounding

import (
	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"

	// The registered rounded manager wraps segregated; link it in.
	_ "compaction/internal/mm/segregated"
)

// Manager wraps an inner manager with power-of-two rounding.
type Manager struct {
	inner sim.Manager
}

var _ sim.Manager = (*Manager)(nil)

// Wrap returns a rounding adapter around inner.
func Wrap(inner sim.Manager) *Manager {
	return &Manager{inner: inner}
}

// Name implements sim.Manager.
func (m *Manager) Name() string { return "rounded-" + m.inner.Name() }

// Reset implements sim.Manager.
func (m *Manager) Reset(cfg sim.Config) {
	// The inner manager may receive sizes up to RoundUpPow2(n).
	inner := cfg
	inner.N = word.RoundUpPow2(cfg.N)
	m.inner.Reset(inner)
}

// Allocate implements sim.Manager.
func (m *Manager) Allocate(id heap.ObjectID, size word.Size, mv sim.Mover) (word.Addr, error) {
	return m.inner.Allocate(id, word.RoundUpPow2(size), mv)
}

// Free implements sim.Manager, presenting the rounded span inward.
func (m *Manager) Free(id heap.ObjectID, s heap.Span) {
	m.inner.Free(id, heap.Span{Addr: s.Addr, Size: word.RoundUpPow2(s.Size)})
}

// StartRound forwards to the inner manager when it compacts.
//
// Note: compaction through the adapter is disabled — the engine's
// mover works in true sizes while the inner manager thinks in rounded
// sizes, and reconciling the budget accounting across that boundary
// belongs to the inner manager itself. The registered rounded managers
// are therefore non-moving ones.
func (m *Manager) StartRound(sim.Mover) {}

func init() {
	// Buddy already rounds internally; wrapping segregated demonstrates
	// the adapter on a manager that does not.
	mm.Register("rounded-segregated", func() sim.Manager {
		return Wrap(mustInner("segregated"))
	})
}

func mustInner(name string) sim.Manager {
	inner, err := mm.New(name)
	if err != nil {
		panic(err)
	}
	return inner
}
