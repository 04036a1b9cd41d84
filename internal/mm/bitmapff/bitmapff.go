// Package bitmapff implements a bitmap-based first-fit allocator: a
// word-granularity occupancy bitmap with summary levels above it, the
// allocation scheme used by mark-sweep collectors that allocate
// directly over their mark bitmaps (e.g. Go's pre-1.5 span allocator,
// Jikes RVM's mark-sweep space). It is a non-moving manager.
//
// The fine bitmap has one bit per heap word. Each 64-word granule
// carries a small summary: the lengths of its free prefix, free suffix
// and longest free run. Above the granules sits a binary summary tree
// holding the same triple, in words, for each block of eight granules
// (the leaves) and for each node over a run of blocks, like the
// summaries over the page bitmap in Go's runtime page allocator
// (runtime/mpagealloc.go). Allocate descends from the root to the
// lowest fitting start: into the left child if its longest run fits,
// else to the run crossing the two children if that fits, else into
// the right child. Only inside the one block it lands in does it walk
// granules, so a call costs the tree's depth plus one block however
// fragmented the heap is. An update refreshes the touched granules and
// blocks, then walks up only while a node's summary changes.
//
// Words past Capacity in the last granule are marked occupied, so no
// placement can reach them.
package bitmapff

import (
	"fmt"
	"math"
	"math/bits"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

const (
	granuleWords  = 64
	blockGranules = 8 // granules per leaf of the summary tree
	blockWords    = blockGranules * granuleWords
)

// granMeta summarizes the free runs of one 64-word granule: the free
// prefix length, free suffix length, and the longest free run anywhere
// in the granule (all in [0, 64]).
type granMeta struct{ pre, suf, max uint8 }

//compactlint:noalloc
func computeMeta(w uint64) granMeta {
	switch w {
	case 0:
		return granMeta{64, 64, 64}
	case ^uint64(0):
		return granMeta{}
	}
	// The longest run of zero bits in w is the longest run of ones in
	// ^w, found by run-doubling; it subsumes the prefix and suffix.
	z := ^w
	var max uint8
	for z != 0 {
		z &= z << 1
		max++
	}
	return granMeta{
		pre: uint8(bits.TrailingZeros64(w)),
		suf: uint8(bits.LeadingZeros64(w)),
		max: max,
	}
}

// summary is a node of the summary tree: the free prefix, free suffix
// and longest free run of the node's range, in words. Reset refuses a
// Capacity above MaxInt32, so every run fits.
type summary struct{ pre, suf, max int32 }

// Manager is the bitmap first-fit allocator.
type Manager struct {
	capacity word.Size
	// fine[i] bit b = word 64i+b occupied.
	fine []uint64
	// meta[i] summarizes granule i's free runs.
	meta []granMeta
	// levels holds the summary tree, leaves first: levels[k][j] covers
	// blocks [j<<k, (j+1)<<k), and its children are levels[k-1][2j]
	// and [2j+1]. Each level has half as many nodes as the one below,
	// rounded up, so a missing right child reads as fully occupied,
	// like the words past Capacity. The last level is the root alone.
	levels [][]summary
}

var _ sim.Manager = (*Manager)(nil)

// New returns an empty bitmap manager.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "bitmap-first-fit" }

// Reset implements sim.Manager. It panics on a Capacity above
// MaxInt32 words, the longest run a tree node can hold.
func (m *Manager) Reset(cfg sim.Config) {
	if cfg.Capacity > math.MaxInt32 {
		panic(fmt.Sprintf("bitmapff: capacity %d words exceeds the summary tree's limit of %d", cfg.Capacity, math.MaxInt32))
	}
	m.capacity = cfg.Capacity
	granules := int((cfg.Capacity + granuleWords - 1) / granuleWords)
	m.fine = make([]uint64, granules)
	m.meta = make([]granMeta, granules)
	for i := range m.meta {
		m.meta[i] = granMeta{64, 64, 64}
	}
	if tail := uint(cfg.Capacity % granuleWords); tail != 0 {
		m.fine[granules-1] = ^uint64(0) << tail
		m.meta[granules-1] = computeMeta(m.fine[granules-1])
	}
	// The levels share one array, so the tree costs no more than its
	// nodes. They start zeroed, that is fully occupied; refresh stops at
	// the first level it leaves unchanged, which is then fully occupied,
	// and so is every level above it.
	leaves := max(1, (granules+blockGranules-1)/blockGranules)
	nodes := 1 // the root
	for n := leaves; n > 1; n = (n + 1) / 2 {
		nodes += n
	}
	tree := make([]summary, nodes)
	m.levels = m.levels[:0]
	for n := leaves; len(tree) > 0; n = (n + 1) / 2 {
		m.levels = append(m.levels, tree[:n:n])
		tree = tree[n:]
	}
	m.refresh(0, leaves-1)
}

// isFree reports whether word a is free.
func (m *Manager) isFree(a word.Addr) bool {
	return m.fine[a>>6]&(1<<uint(a&63)) == 0
}

// setRange marks [s.Addr, s.End()) occupied (v=true) or free, then
// refreshes the summaries above it.
//
//compactlint:noalloc
func (m *Manager) setRange(s heap.Span, occupied bool) {
	for a := s.Addr; a < s.End(); {
		g := a >> 6
		lo := uint(a & 63)
		hi := uint(64)
		if end := (g + 1) << 6; s.End() < end {
			hi = uint(s.End() - g<<6)
		}
		mask := ^uint64(0) << lo
		if hi < 64 {
			mask &= (1 << hi) - 1
		}
		if occupied {
			m.fine[g] |= mask
		} else {
			m.fine[g] &^= mask
		}
		m.meta[g] = computeMeta(m.fine[g])
		a = g<<6 + word.Addr(hi)
	}
	m.refresh(int(s.Addr/blockWords), int((s.End()-1)/blockWords))
}

// refresh recomputes blocks lo..hi, then their ancestors level by
// level, stopping at the first level where no summary changed.
//
//compactlint:noalloc
func (m *Manager) refresh(lo, hi int) {
	changed := false
	for j, leaves := lo, m.levels[0]; j <= hi; j++ {
		if s := m.block(j); leaves[j] != s {
			leaves[j], changed = s, true
		}
	}
	half := int64(blockWords)
	for k := 1; changed && k < len(m.levels); k++ {
		below, level := m.levels[k-1], m.levels[k]
		lo, hi, changed = lo>>1, hi>>1, false
		for j := lo; j <= hi; j++ {
			if s := join(below, j, half); level[j] != s {
				level[j], changed = s, true
			}
		}
		half <<= 1
	}
}

// join computes node j of a level from its children, nodes 2j and
// 2j+1 of the level below, each spanning half words.
//
//compactlint:noalloc
func join(below []summary, j int, half int64) summary {
	l := below[2*j]
	var r summary // a missing right child is fully occupied
	if 2*j+1 < len(below) {
		r = below[2*j+1]
	}
	s := summary{pre: l.pre, suf: r.suf, max: max(l.max, r.max, l.suf+r.pre)}
	if int64(l.pre) == half {
		s.pre += r.pre
	}
	if int64(r.suf) == half {
		s.suf += l.suf
	}
	return s
}

// block combines the summaries of block b's granules. Granules past
// the last one are fully occupied.
//
//compactlint:noalloc
func (m *Manager) block(b int) summary {
	var s summary
	run := int32(0) // free run reaching the current granule boundary
	prefix := true  // every granule so far is entirely free
	g := b * blockGranules
	for end := g + blockGranules; g < end; g++ {
		mt := granMeta{} // past the last granule: occupied
		if g < len(m.meta) {
			mt = m.meta[g]
		}
		if mt.pre == granuleWords {
			run += granuleWords
			continue
		}
		if prefix {
			s.pre, prefix = run+int32(mt.pre), false
		}
		s.max = max(s.max, run+int32(mt.pre), int32(mt.max))
		run = int32(mt.suf)
	}
	if prefix {
		s.pre = run
	}
	s.suf = run
	s.max = max(s.max, run)
	return s
}

// Allocate implements sim.Manager: the lowest-address first fit.
func (m *Manager) Allocate(_ heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	addr, ok := m.find(size)
	if !ok {
		return 0, heap.ErrNoFit
	}
	m.setRange(heap.Span{Addr: addr, Size: size}, true)
	return addr, nil
}

// find returns the lowest address of a free run of the given length.
// It descends the summary tree, keeping the invariant that the current
// node holds a fitting run and nothing below its range starts one, and
// finishes with a granule walk of the one block it reaches.
//
//compactlint:noalloc
func (m *Manager) find(size word.Size) (word.Addr, bool) {
	top := len(m.levels) - 1
	if word.Size(m.levels[top][0].max) < size {
		return 0, false
	}
	j := 0
	for k := top; k > 0; k-- {
		below := m.levels[k-1]
		l := below[2*j]
		if word.Size(l.max) >= size {
			j = 2 * j
			continue
		}
		// The node's fit is not inside its left child, so the right
		// child exists.
		r := below[2*j+1]
		if word.Size(l.suf)+word.Size(r.pre) >= size {
			mid := word.Addr(2*j+1) * (blockWords << (k - 1))
			return mid - word.Addr(l.suf), true
		}
		j = 2*j + 1
	}
	return m.scanBlock(j, size), true
}

// scanBlock finds the lowest start of a fitting run inside block b,
// which its summary says holds one. It walks granules, carrying the
// length of the free run that reaches the current granule boundary;
// summaries decide each granule in O(1), and only a granule whose
// cached max proves it contains a fitting inner run is scanned bit by
// bit.
//
//compactlint:noalloc
func (m *Manager) scanBlock(b int, size word.Size) word.Addr {
	var run word.Size   // free run ending at the current granule boundary
	var start word.Addr // its start address
	g := b * blockGranules
	for end := min(g+blockGranules, len(m.fine)); g < end; g++ {
		w := m.fine[g]
		if w == ^uint64(0) {
			run = 0
			continue
		}
		base := word.Addr(g) << 6
		if w == 0 {
			if run == 0 {
				start = base
			}
			run += 64
			if run >= size {
				return start
			}
			continue
		}
		mt := m.meta[g]
		// A run carried in from below extends by this granule's free
		// prefix; if that does not reach size, the carried run dies here
		// (the prefix is followed by an occupied bit).
		if run > 0 {
			if run+word.Size(mt.pre) >= size {
				return start
			}
			run = 0
		}
		// Runs wholly inside this granule: the cached max says in O(1)
		// whether one fits; only then is the granule's bit pattern
		// walked, and success is guaranteed.
		if word.Size(mt.max) >= size {
			bit := 0
			for bit < 64 {
				rem := w >> uint(bit)
				if rem&1 == 0 {
					zeros := bits.TrailingZeros64(rem)
					if rem == 0 {
						zeros = 64 - bit
					}
					if word.Size(zeros) >= size {
						return base + word.Addr(bit)
					}
					bit += zeros
				} else {
					bit += bits.TrailingZeros64(^rem)
				}
			}
		}
		// The granule's free suffix seeds the carry into the next one.
		if mt.suf > 0 {
			run = word.Size(mt.suf)
			start = base + 64 - word.Addr(mt.suf)
		}
	}
	panic(fmt.Sprintf("bitmapff: block %d holds no run of %d words its summary promised", b, size))
}

// Free implements sim.Manager.
func (m *Manager) Free(_ heap.ObjectID, s heap.Span) {
	m.setRange(s, false)
}

// OccupiedWords counts set bits below Capacity, for tests.
func (m *Manager) OccupiedWords() word.Size {
	var n word.Size
	for _, w := range m.fine {
		n += word.Size(bits.OnesCount64(w))
	}
	return n - (word.Size(len(m.fine))*granuleWords - m.capacity)
}

func init() {
	mm.Register("bitmap-first-fit", func() sim.Manager { return New() })
}
