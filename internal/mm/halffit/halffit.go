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
	"math/bits"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

const maxClasses = 48

type blk struct {
	span       heap.Span
	prev, next *blk
}

// Manager is the half-fit allocator.
type Manager struct {
	lists  [maxClasses]*blk
	bitmap uint64
	// byAddr/byEnd locate free blocks by their boundaries for
	// coalescing; an allocated block is in neither.
	byAddr map[word.Addr]*blk
	byEnd  map[word.Addr]*blk
	objs   map[heap.ObjectID]*blk
}

var _ sim.Manager = (*Manager)(nil)

// New returns an empty half-fit manager.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "half-fit" }

// Reset implements sim.Manager.
func (m *Manager) Reset(cfg sim.Config) {
	m.lists = [maxClasses]*blk{}
	m.bitmap = 0
	m.byAddr = make(map[word.Addr]*blk)
	m.byEnd = make(map[word.Addr]*blk)
	m.objs = make(map[heap.ObjectID]*blk)
	m.link(&blk{span: heap.Span{Addr: 0, Size: cfg.Capacity}})
}

// class of a FREE block: the largest i with 2^i <= size, so every
// block in class i has size >= 2^i.
func classOf(size word.Size) int { return word.Log2(size) }

func (m *Manager) link(b *blk) {
	c := classOf(b.span.Size)
	b.prev = nil
	b.next = m.lists[c]
	if b.next != nil {
		b.next.prev = b
	}
	m.lists[c] = b
	m.bitmap |= 1 << uint(c)
	m.byAddr[b.span.Addr] = b
	m.byEnd[b.span.End()] = b
}

func (m *Manager) unlink(b *blk) {
	c := classOf(b.span.Size)
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		m.lists[c] = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	if m.lists[c] == nil {
		m.bitmap &^= 1 << uint(c)
	}
	b.prev, b.next = nil, nil
	delete(m.byAddr, b.span.Addr)
	delete(m.byEnd, b.span.End())
}

// Allocate implements sim.Manager: O(1) guaranteed-fit lookup.
func (m *Manager) Allocate(id heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	// Any block in class >= ceil(log2 size) fits.
	c := word.CeilLog2(size)
	mask := m.bitmap &^ (uint64(1)<<uint(c) - 1)
	if mask == 0 {
		// The guaranteed classes are empty; the class below may still
		// hold a block that happens to fit (sizes in [2^(c-1), 2^c)).
		// Half-fit proper skips this search; we keep it O(length of
		// one list) and only as a last resort before failing.
		if c > 0 {
			for b := m.lists[c-1]; b != nil; b = b.next {
				if b.span.Size >= size {
					return m.take(id, b, size), nil
				}
			}
		}
		return 0, heap.ErrNoFit
	}
	b := m.lists[bits.TrailingZeros64(mask)]
	if b.span.Size < size {
		panic(fmt.Sprintf("half-fit: class invariant broken: %v for %d", b.span, size))
	}
	return m.take(id, b, size), nil
}

func (m *Manager) take(id heap.ObjectID, b *blk, size word.Size) word.Addr {
	m.unlink(b)
	if rem := b.span.Size - size; rem > 0 {
		m.link(&blk{span: heap.Span{Addr: b.span.Addr + size, Size: rem}})
		b.span.Size = size
	}
	m.objs[id] = b
	return b.span.Addr
}

// Free implements sim.Manager with boundary coalescing.
func (m *Manager) Free(id heap.ObjectID, s heap.Span) {
	b, ok := m.objs[id]
	if !ok || b.span != s {
		panic(fmt.Sprintf("half-fit: Free(%d, %v) does not match record", id, s))
	}
	delete(m.objs, id)
	if p, ok := m.byEnd[b.span.Addr]; ok {
		m.unlink(p)
		b.span = heap.Span{Addr: p.span.Addr, Size: p.span.Size + b.span.Size}
	}
	if n, ok := m.byAddr[b.span.End()]; ok {
		m.unlink(n)
		b.span.Size += n.span.Size
	}
	m.link(b)
}

func init() {
	mm.Register("half-fit", func() sim.Manager { return New() })
}
