// Package tlsf implements a Two-Level Segregated Fit allocator
// (Masmano et al., "TLSF: a new dynamic memory allocator for real-time
// systems", ECRTS 2004) as a non-moving manager. TLSF is the standard
// allocator of real-time systems — exactly the domain the paper's
// bounds speak to: its O(1) good-fit policy bounds allocation *time*,
// while Theorem 1 bounds the *space* no policy can beat.
//
// Free blocks are indexed by a two-level bitmap: the first level is
// the power-of-two size class (fl = ⌊log2 size⌋), the second level
// subdivides each class linearly into up to 16 ranges. Freeing
// coalesces with both physical neighbours via boundary tags.
package tlsf

import (
	"fmt"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

const (
	// slShift is log2 of the number of second-level subdivisions.
	slShift = 4
	slCount = 1 << slShift
	// maxFL covers sizes up to 2^48 words.
	maxFL = 48
)

// Manager is the TLSF allocator. Its free lists are those of an
// mm.Blocks store, class fl·slCount + sl for the list (fl, sl), so
// the store's first non-empty class at or above a class is TLSF's
// two-level bitmap search.
type Manager struct {
	blocks mm.Blocks
}

var _ sim.Manager = (*Manager)(nil)

// New returns an empty TLSF manager.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "tlsf" }

// Reset implements sim.Manager.
func (m *Manager) Reset(cfg sim.Config) {
	m.blocks.Reset(cfg.Capacity, maxFL*slCount, class)
}

// mapping returns the (fl, sl) class of a block size.
func mapping(size word.Size) (int, int) {
	fl := word.Log2(size)
	if fl < slShift {
		// Small classes have fewer than slCount distinct sizes; use
		// the offset within the class directly.
		return fl, int(size - word.Pow2(fl))
	}
	sl := int((size >> uint(fl-slShift)) - slCount)
	return fl, sl
}

// mappingSearch returns the class to start searching from so that any
// block found is guaranteed to fit a request of the given size (the
// classic round-up trick).
func mappingSearch(size word.Size) (int, int) {
	fl := word.Log2(size)
	if fl >= slShift && size&(word.Pow2(fl-slShift)-1) != 0 {
		size += word.Pow2(fl-slShift) - 1
	}
	return mapping(size)
}

// class numbers the list (fl, sl) of a free block's size.
func class(size word.Size) int {
	fl, sl := mapping(size)
	return fl<<slShift | sl
}

// Allocate implements sim.Manager: the head of the smallest non-empty
// list whose blocks all fit size, found in O(1) by the bitmaps.
func (m *Manager) Allocate(id heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	fl, sl := mappingSearch(size)
	b := m.blocks.FirstFrom(fl<<slShift | sl)
	if b == 0 {
		return 0, heap.ErrNoFit
	}
	if s := m.blocks.Span(b); s.Size < size {
		panic(fmt.Sprintf("tlsf: good-fit invariant broken: block %v for request %d", s, size))
	}
	return m.blocks.Take(b, id, size), nil
}

// Free implements sim.Manager with immediate boundary coalescing.
func (m *Manager) Free(id heap.ObjectID, s heap.Span) { m.blocks.Free(id, s) }

// FreeLists reports the number of free blocks per first-level class,
// for tests.
func (m *Manager) FreeLists() map[int]int {
	out := make(map[int]int)
	for c := 0; c < maxFL*slCount; c++ {
		for b := m.blocks.Head(c); b != 0; b = m.blocks.Next(b) {
			out[c>>slShift]++
		}
	}
	return out
}

func init() {
	mm.Register("tlsf", func() sim.Manager { return New() })
}
