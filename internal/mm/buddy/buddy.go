// Package buddy implements a classical binary buddy allocator as a
// non-moving baseline manager. Every object is served from a
// power-of-two block aligned to its size; freed blocks coalesce with
// their buddies. Internal fragmentation (rounding requests up to a
// power of two) is the price for aligned placement, mirroring the
// P2(M, n) rounding discussed in Section 2.2 of the paper.
package buddy

import (
	"fmt"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// Manager is a non-moving binary buddy allocator.
type Manager struct {
	capacity word.Size // a power of two
	maxOrder int
	// free is a bitset over the blocks of every order, laid out like
	// the levels of a binary tree: the block of order o at a is bit
	// (capacity+a)>>o, set while the block is free, so each order's
	// bits are keyed by a>>o and the few blocks of the high orders
	// share a page. count[o] counts the free blocks of order o.
	// stacks[o] holds them in the order they were freed, and may hold
	// stale entries (blocks since merged away, or older entries of a
	// block freed again): popping skips them, keeping the structure
	// deterministic, and push rebuilds a stack that grows past twice
	// its count.
	free   mm.Paged[uint8]
	count  []int
	stacks [][]word.Addr
}

var _ sim.Manager = (*Manager)(nil)

// New returns an empty buddy manager; Reset prepares it for a run.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "buddy" }

// Reset implements sim.Manager.
func (m *Manager) Reset(cfg sim.Config) {
	m.capacity = word.RoundDownPow2(cfg.Capacity)
	m.maxOrder = word.Log2(m.capacity)
	m.free.Reset(2 * m.capacity / 8)
	m.count = make([]int, m.maxOrder+1)
	m.stacks = make([][]word.Addr, m.maxOrder+1)
	m.push(0, m.maxOrder)
}

// isFree reports whether the block of the given order at a is free.
func (m *Manager) isFree(order int, a word.Addr) bool {
	k := (m.capacity + a) >> order
	return m.free.Get(k>>3)&(1<<(k&7)) != 0
}

// mark sets the free bit of the block of the given order at a to free.
func (m *Manager) mark(order int, a word.Addr, free bool) {
	k := (m.capacity + a) >> order
	v := m.free.Get(k>>3) &^ (1 << (k & 7))
	if free {
		v |= 1 << (k & 7)
	}
	m.free.Set(k>>3, v)
}

// take marks the free block of the given order at a as no longer free.
func (m *Manager) take(order int, a word.Addr) {
	m.mark(order, a, false)
	m.count[order]--
}

func (m *Manager) push(a word.Addr, order int) {
	m.mark(order, a, true)
	m.count[order]++
	m.stacks[order] = append(m.stacks[order], a)
	if len(m.stacks[order]) > 2*m.count[order] {
		m.compact(order)
	}
}

// compact rebuilds the stack of one order from its topmost entry for
// each address still free, in stack order. Every pop returns what it
// would have: pop takes the topmost entry whose address is free, and a
// lower entry for the same address is never reached while the address
// is free, since the push that freed it put an entry on top. The walk
// clears the free bit of each entry it keeps, so a lower entry for the
// same address reads as stale, and sets the bits again when done. Each
// rebuild at least halves the stack, so it costs O(1) per push,
// amortized.
func (m *Manager) compact(order int) {
	st := m.stacks[order]
	w := len(st)
	for i := len(st) - 1; i >= 0; i-- {
		if a := st[i]; m.isFree(order, a) {
			m.mark(order, a, false)
			w--
			st[w] = a
		}
	}
	for _, a := range st[w:] {
		m.mark(order, a, true)
	}
	m.stacks[order] = append(st[:0], st[w:]...)
}

// pop removes and returns a free block of exactly the given order.
func (m *Manager) pop(order int) (word.Addr, bool) {
	st := m.stacks[order]
	for len(st) > 0 {
		a := st[len(st)-1]
		st = st[:len(st)-1]
		if m.isFree(order, a) {
			m.take(order, a)
			m.stacks[order] = st
			return a, true
		}
	}
	m.stacks[order] = st
	return 0, false
}

// Allocate implements sim.Manager.
func (m *Manager) Allocate(_ heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	order := word.CeilLog2(size)
	if order > m.maxOrder {
		return 0, fmt.Errorf("buddy: request %d exceeds heap capacity", size)
	}
	// Find the smallest available order >= requested.
	from := -1
	for o := order; o <= m.maxOrder; o++ {
		if m.count[o] > 0 {
			from = o
			break
		}
	}
	if from < 0 {
		return 0, heap.ErrNoFit
	}
	addr, ok := m.pop(from)
	if !ok {
		panic("buddy: count/stack inconsistency")
	}
	// Split down to the requested order, freeing the upper halves.
	for o := from; o > order; o-- {
		m.push(addr+word.Pow2(o-1), o-1)
	}
	return addr, nil
}

// Free implements sim.Manager, coalescing buddies eagerly. The object
// occupies the block of order ⌈log2 size⌉ at its address.
func (m *Manager) Free(_ heap.ObjectID, s heap.Span) {
	addr, order := s.Addr, word.CeilLog2(s.Size)
	for order < m.maxOrder {
		buddy := addr ^ word.Pow2(order)
		if !m.isFree(order, buddy) {
			break
		}
		m.take(order, buddy)
		if buddy < addr {
			addr = buddy
		}
		order++
	}
	m.push(addr, order)
}

// FreeBlocks returns the number of live free blocks per order, for
// inspection in tests and stats.
func (m *Manager) FreeBlocks() map[int]int {
	out := make(map[int]int)
	for o, n := range m.count {
		if n > 0 {
			out[o] = n
		}
	}
	return out
}

func init() {
	mm.Register("buddy", func() sim.Manager { return New() })
}
