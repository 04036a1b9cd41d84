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

type block struct {
	addr  word.Addr
	order int
}

// Manager is a non-moving binary buddy allocator.
type Manager struct {
	maxOrder int
	// Per-order free blocks. stacks may hold stale entries (blocks that
	// were merged away); sets holds the truth. Popping skips stale
	// entries, keeping the structure deterministic without ordered maps,
	// and push rebuilds a stack that grows past twice its set.
	sets   []map[word.Addr]struct{}
	stacks [][]word.Addr
	seen   map[word.Addr]struct{} // scratch for compact
}

var _ sim.Manager = (*Manager)(nil)

// New returns an empty buddy manager; Reset prepares it for a run.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "buddy" }

// Reset implements sim.Manager.
func (m *Manager) Reset(cfg sim.Config) {
	capacity := word.RoundDownPow2(cfg.Capacity)
	m.maxOrder = word.Log2(capacity)
	m.sets = make([]map[word.Addr]struct{}, m.maxOrder+1)
	m.stacks = make([][]word.Addr, m.maxOrder+1)
	for i := range m.sets {
		m.sets[i] = make(map[word.Addr]struct{})
	}
	m.seen = make(map[word.Addr]struct{})
	m.push(block{addr: 0, order: m.maxOrder})
}

func (m *Manager) push(b block) {
	m.sets[b.order][b.addr] = struct{}{}
	m.stacks[b.order] = append(m.stacks[b.order], b.addr)
	if len(m.stacks[b.order]) > 2*len(m.sets[b.order]) {
		m.compact(b.order)
	}
}

// compact rebuilds the stack of one order from its topmost entry for
// each address still in the set, in stack order. Every pop returns
// what it would have: pop takes the topmost entry whose address is
// free, and a lower entry for the same address is never reached while
// the address is free, since the push that freed it put an entry on
// top. Each rebuild at least halves the stack, so it costs O(1) per
// push, amortized.
func (m *Manager) compact(order int) {
	st, set := m.stacks[order], m.sets[order]
	clear(m.seen)
	w := len(st)
	for i := len(st) - 1; i >= 0; i-- {
		a := st[i]
		if _, free := set[a]; !free {
			continue
		}
		if _, dup := m.seen[a]; dup {
			continue
		}
		m.seen[a] = struct{}{}
		w--
		st[w] = a
	}
	m.stacks[order] = append(st[:0], st[w:]...)
}

// pop removes and returns a free block of exactly the given order.
func (m *Manager) pop(order int) (word.Addr, bool) {
	st := m.stacks[order]
	for len(st) > 0 {
		a := st[len(st)-1]
		st = st[:len(st)-1]
		if _, live := m.sets[order][a]; live {
			delete(m.sets[order], a)
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
		if len(m.sets[o]) > 0 {
			from = o
			break
		}
	}
	if from < 0 {
		return 0, heap.ErrNoFit
	}
	addr, ok := m.pop(from)
	if !ok {
		panic("buddy: set/stack inconsistency")
	}
	// Split down to the requested order, freeing the upper halves.
	for o := from; o > order; o-- {
		m.push(block{addr: addr + word.Pow2(o-1), order: o - 1})
	}
	return addr, nil
}

// Free implements sim.Manager, coalescing buddies eagerly. The object
// occupies the block of order ⌈log2 size⌉ at its address.
func (m *Manager) Free(_ heap.ObjectID, s heap.Span) {
	addr, order := s.Addr, word.CeilLog2(s.Size)
	for order < m.maxOrder {
		buddy := addr ^ word.Pow2(order)
		if _, free := m.sets[order][buddy]; !free {
			break
		}
		delete(m.sets[order], buddy)
		if buddy < addr {
			addr = buddy
		}
		order++
	}
	m.push(block{addr: addr, order: order})
}

// FreeBlocks returns the number of live free blocks per order, for
// inspection in tests and stats.
func (m *Manager) FreeBlocks() map[int]int {
	out := make(map[int]int)
	for o, set := range m.sets {
		if len(set) > 0 {
			out[o] = len(set)
		}
	}
	return out
}

func init() {
	mm.Register("buddy", func() sim.Manager { return New() })
}
