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
// coalesces with both physical neighbours via boundary lookup tables.
package tlsf

import (
	"fmt"
	"math/bits"

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

// blk is a free or allocated block. Free blocks are linked into their
// (fl, sl) list.
type blk struct {
	span       heap.Span
	prev, next *blk // free-list links
}

// Manager is the TLSF allocator.
type Manager struct {
	lists    [maxFL][slCount]*blk
	flBitmap uint64
	slBitmap [maxFL]uint32
	// byAddr/byEnd locate free blocks by their boundaries for
	// coalescing; an allocated block is in neither.
	byAddr map[word.Addr]*blk
	byEnd  map[word.Addr]*blk
	objs   map[heap.ObjectID]*blk
}

var _ sim.Manager = (*Manager)(nil)

// New returns an empty TLSF manager.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "tlsf" }

// Reset implements sim.Manager.
func (m *Manager) Reset(cfg sim.Config) {
	m.lists = [maxFL][slCount]*blk{}
	m.flBitmap = 0
	m.slBitmap = [maxFL]uint32{}
	m.byAddr = make(map[word.Addr]*blk)
	m.byEnd = make(map[word.Addr]*blk)
	m.objs = make(map[heap.ObjectID]*blk)
	all := &blk{span: heap.Span{Addr: 0, Size: cfg.Capacity}}
	m.link(all)
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

func (m *Manager) link(b *blk) {
	fl, sl := mapping(b.span.Size)
	b.prev = nil
	b.next = m.lists[fl][sl]
	if b.next != nil {
		b.next.prev = b
	}
	m.lists[fl][sl] = b
	m.flBitmap |= 1 << uint(fl)
	m.slBitmap[fl] |= 1 << uint(sl)
	m.byAddr[b.span.Addr] = b
	m.byEnd[b.span.End()] = b
}

func (m *Manager) unlink(b *blk) {
	fl, sl := mapping(b.span.Size)
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		m.lists[fl][sl] = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	if m.lists[fl][sl] == nil {
		m.slBitmap[fl] &^= 1 << uint(sl)
		if m.slBitmap[fl] == 0 {
			m.flBitmap &^= 1 << uint(fl)
		}
	}
	b.prev, b.next = nil, nil
	delete(m.byAddr, b.span.Addr)
	delete(m.byEnd, b.span.End())
}

// findFit locates the head of the smallest non-empty list whose blocks
// all fit size. O(1) via the bitmaps.
func (m *Manager) findFit(size word.Size) *blk {
	fl, sl := mappingSearch(size)
	// Lists at (fl, >= sl)?
	if mask := m.slBitmap[fl] &^ (uint32(1)<<uint(sl) - 1); mask != 0 {
		return m.lists[fl][bits.TrailingZeros32(mask)]
	}
	// Otherwise any list at a higher fl.
	if mask := m.flBitmap &^ (uint64(1)<<uint(fl+1) - 1); mask != 0 {
		fl2 := bits.TrailingZeros64(mask)
		sl2 := bits.TrailingZeros32(m.slBitmap[fl2])
		return m.lists[fl2][sl2]
	}
	return nil
}

// Allocate implements sim.Manager.
func (m *Manager) Allocate(id heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	b := m.findFit(size)
	if b == nil {
		return 0, heap.ErrNoFit
	}
	if b.span.Size < size {
		panic(fmt.Sprintf("tlsf: good-fit invariant broken: block %v for request %d", b.span, size))
	}
	m.unlink(b)
	if rem := b.span.Size - size; rem > 0 {
		m.link(&blk{span: heap.Span{Addr: b.span.Addr + size, Size: rem}})
		b.span.Size = size
	}
	m.objs[id] = b
	return b.span.Addr, nil
}

// Free implements sim.Manager with immediate boundary coalescing.
func (m *Manager) Free(id heap.ObjectID, s heap.Span) {
	b, ok := m.objs[id]
	if !ok || b.span != s {
		panic(fmt.Sprintf("tlsf: Free(%d, %v) does not match record", id, s))
	}
	delete(m.objs, id)
	// Merge with the physical predecessor if free.
	if p, ok := m.byEnd[b.span.Addr]; ok {
		m.unlink(p)
		b.span = heap.Span{Addr: p.span.Addr, Size: p.span.Size + b.span.Size}
	}
	// Merge with the physical successor if free.
	if n, ok := m.byAddr[b.span.End()]; ok {
		m.unlink(n)
		b.span.Size += n.span.Size
	}
	m.link(b)
}

// FreeLists reports the number of free blocks per first-level class,
// for tests.
func (m *Manager) FreeLists() map[int]int {
	out := make(map[int]int)
	for fl := range m.lists {
		for sl := range m.lists[fl] {
			for b := m.lists[fl][sl]; b != nil; b = b.next {
				out[fl]++
			}
		}
	}
	return out
}

func init() {
	mm.Register("tlsf", func() sim.Manager { return New() })
}
