// Package halffit implements Ogasawara's Half-Fit allocator (RTCSA
// 1995), the O(1) predecessor of TLSF: free blocks are indexed by a
// single-level power-of-two table, allocation takes from the first
// non-empty class that guarantees a fit (index ⌈log2 size⌉), and
// freed blocks coalesce with their physical neighbours. The guaranteed
// fit costs internal waste — a request may be served from a block up
// to twice its size even when a closer fit exists, the trait the
// allocator is named for.
package halffit

import (
	"fmt"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

const maxClasses = 48

// Manager is the half-fit allocator. Its free lists are those of an
// mm.Blocks store, one per power-of-two class.
type Manager struct {
	blocks mm.Blocks
}

var _ sim.Manager = (*Manager)(nil)

// New returns an empty half-fit manager.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "half-fit" }

// Reset implements sim.Manager.
func (m *Manager) Reset(cfg sim.Config) {
	m.blocks.Reset(cfg.Capacity, maxClasses, classOf)
}

// class of a FREE block: the largest i with 2^i <= size, so every
// block in class i has size >= 2^i.
func classOf(size word.Size) int { return word.Log2(size) }

// Allocate implements sim.Manager: O(1) guaranteed-fit lookup.
func (m *Manager) Allocate(id heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	// Any block in class >= ceil(log2 size) fits.
	c := word.CeilLog2(size)
	b := m.blocks.FirstFrom(c)
	if b == 0 {
		// The guaranteed classes are empty; the class below may still
		// hold a block that happens to fit (sizes in [2^(c-1), 2^c)).
		// Half-fit proper skips this search; we keep it O(length of
		// one list) and only as a last resort before failing.
		if c > 0 {
			for b := m.blocks.Head(c - 1); b != 0; b = m.blocks.Next(b) {
				if m.blocks.Span(b).Size >= size {
					return m.blocks.Take(b, id, size), nil
				}
			}
		}
		return 0, heap.ErrNoFit
	}
	if s := m.blocks.Span(b); s.Size < size {
		panic(fmt.Sprintf("half-fit: class invariant broken: %v for %d", s, size))
	}
	return m.blocks.Take(b, id, size), nil
}

// Free implements sim.Manager with boundary coalescing.
func (m *Manager) Free(id heap.ObjectID, s heap.Span) { m.blocks.Free(id, s) }

func init() {
	mm.Register("half-fit", func() sim.Manager { return New() })
}
