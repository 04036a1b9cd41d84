// Package threshold implements a density-threshold partial compactor
// in the style of region-evacuating collectors (Garbage-First,
// Metronome, the Compressor): the heap is viewed as fixed-size chunks,
// and chunks whose live density falls below a threshold are evacuated
// — objects are moved into holes elsewhere — whenever the compaction
// budget permits. Allocation is best-fit.
//
// This is the natural "practical" c-partial manager the paper's lower
// bound speaks to: it spends its 1/c budget where the paper says a
// manager must (sparse chunks), and the adversary P_F is designed to
// make exactly this strategy unprofitable by keeping every chunk's
// density above 2^-ℓ > 1/c.
//
// A scan does not search the heap for its chunks. The manager keeps a
// census of the live words and objects in each chunk, updated on every
// allocation, free and move and grown with the heap's extent, so a
// scan reads the sparse chunks and their order straight off it and
// returns without touching an object when none is sparse. Otherwise it
// walks the scan list once, dropping each object into the bucket of
// every sparse chunk it intersects, and sorts a bucket by address only
// when evacuation reaches it.
package threshold

import (
	"cmp"
	"slices"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// maxDensity is the highest live density at which a chunk is still
// considered worth evacuating.
const maxDensity = 0.25

// Manager is the density-threshold evacuating compactor.
type Manager struct {
	mm.Base
	// chunkSize is the evacuation granule: four times the largest
	// object (rounded up to a power of two), so any object intersects
	// at most two chunks.
	chunkSize word.Size
	// freedSinceScan accumulates freed words to pace evacuation scans.
	freedSinceScan word.Size
	census         census
}

// census counts the live words and objects of each chunk, and holds
// the scan's reused buffers.
type census struct {
	shift uint // log2 of the chunk size
	// chunks[k] covers words [k<<shift, (k+1)<<shift). It reaches as
	// far as the heap has been used, not to the heap's capacity.
	chunks []chunk
	// sparse lists the chunks the current scan evacuates, in order.
	sparse []sparseChunk
	// objs holds the scanned objects, one bucket per sparse chunk.
	objs []heap.Object
}

type chunk struct {
	words word.Size // live words in the chunk
	objs  int32     // live objects intersecting the chunk
	rank  int32     // 1 + the chunk's place in sparse while a scan collects, else 0
}

type sparseChunk struct {
	index  int64
	words  word.Size // live words when the scan began
	lo, hi int       // the chunk's bucket, objs[lo:hi]
}

var (
	_ sim.Manager        = (*Manager)(nil)
	_ sim.RoundCompactor = (*Manager)(nil)
)

// New returns an empty manager.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "threshold" }

// Reset implements sim.Manager.
func (m *Manager) Reset(cfg sim.Config) {
	m.Base.Reset(cfg)
	m.chunkSize = word.RoundUpPow2(cfg.N) * 4
	m.freedSinceScan = 0
	m.census.shift = uint(word.Log2(m.chunkSize))
	m.census.chunks = m.census.chunks[:0]
}

// Free implements sim.Manager.
func (m *Manager) Free(id heap.ObjectID, s heap.Span) {
	m.freedSinceScan += s.Size
	m.Base.Free(id, s)
	m.census.count(s, -1)
}

// Allocate implements sim.Manager (best-fit placement).
func (m *Manager) Allocate(id heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	addr, err := m.FS.AllocBestFit(size)
	if err != nil {
		return 0, err
	}
	s := heap.Span{Addr: addr, Size: size}
	m.Record(id, s)
	m.census.cover(s.End())
	m.census.count(s, 1)
	return addr, nil
}

// StartRound implements sim.RoundCompactor: scan for sparse chunks
// once enough freeing has happened, and evacuate the sparsest ones
// while the budget lasts.
func (m *Manager) StartRound(mv sim.Mover) {
	if m.freedSinceScan < m.chunkSize || mv.Remaining() == 0 {
		return
	}
	m.freedSinceScan = 0
	if !m.plan(mv.Remaining()) {
		return
	}
	m.collect()
	m.evacuate(mv)
}

// plan reads the chunks a scan evacuates off the census: those whose
// live words are at most maxDensity of a chunk, sparsest first (by live
// words, then chunk index), each given a bucket in the scan buffer as
// long as its count of objects. It returns false when no chunk is
// sparse. It is the only step of a scan that allocates, and only when
// a buffer must grow.
func (m *Manager) plan(budget word.Size) bool {
	c := &m.census
	limit := word.Size(float64(m.chunkSize) * maxDensity)
	c.sparse = c.sparse[:0]
	for k, ch := range c.chunks {
		if ch.words > 0 && ch.words <= limit {
			c.sparse = append(c.sparse, sparseChunk{index: int64(k), words: ch.words})
		}
	}
	if len(c.sparse) == 0 {
		return false
	}
	// Sparsest first: cheapest evacuations buy the most reusable space.
	slices.SortFunc(c.sparse, bySparsity)
	n := 0
	for r := range c.sparse {
		sc := &c.sparse[r]
		sc.lo, sc.hi = n, n
		n += int(c.chunks[sc.index].objs)
		c.chunks[sc.index].rank = int32(r + 1)
	}
	c.objs = slices.Grow(c.objs[:0], n)[:n]
	// A destination is the start of a free interval, so it lies at or
	// below the end of the live objects, and each move carries that
	// end at most as far as the object's size. The scan moves at most
	// its budget, and at most its n objects of at most N words each.
	grow := min(budget, word.Size(n)*m.Cfg.N)
	c.cover(min(m.Cfg.Capacity, word.Addr(len(c.chunks))<<c.shift+grow))
	return true
}

// collect fills the sparse chunks' buckets in one walk of the scan
// list.
//
//compactlint:noalloc
func (m *Manager) collect() {
	c := &m.census
	m.Objs.Visit(c)
	for _, sc := range c.sparse {
		c.chunks[sc.index].rank = 0
	}
}

// Visit implements heap.SpanVisitor for collect: it drops the object
// into the bucket of each sparse chunk it intersects.
//
//compactlint:noalloc
func (c *census) Visit(id heap.ObjectID, s heap.Span) bool {
	for k := s.Addr >> c.shift; k <= (s.End()-1)>>c.shift; k++ {
		if r := c.chunks[k].rank; r > 0 {
			sc := &c.sparse[r-1]
			c.objs[sc.hi] = heap.Object{ID: id, Span: s}
			sc.hi++
		}
	}
	return true
}

// evacuate moves the sparse chunks' objects out, chunk by chunk in plan
// order and each chunk's objects by address, until the budget or the
// engine stops it.
//
//compactlint:noalloc
func (m *Manager) evacuate(mv sim.Mover) {
	c := &m.census
	for _, sc := range c.sparse {
		bucket := c.objs[sc.lo:sc.hi]
		slices.SortFunc(bucket, byAddr)
		for _, o := range bucket {
			cur, ok := m.Objs.Get(o.ID)
			if !ok || cur.Addr != o.Span.Addr {
				// Freed when it was moved, or moved out of an
				// earlier chunk it straddles.
				continue
			}
			if mv.Remaining() < cur.Size {
				return
			}
			dst, ok := m.findDestination(cur.Size, sc.index)
			if !ok {
				continue
			}
			removed, err := m.MoveObject(mv, o.ID, dst)
			if err != nil {
				return // budget or engine refusal: stop compacting
			}
			c.count(cur, -1)
			if !removed {
				c.count(heap.Span{Addr: dst, Size: cur.Size}, 1)
			}
		}
	}
}

// findDestination returns a best-fit placement outside the chunk being
// evacuated.
//
//compactlint:noalloc
func (m *Manager) findDestination(size word.Size, avoid int64) (word.Addr, bool) {
	shift := m.census.shift
	g, ok := m.FS.PeekBestFit(size)
	if ok && g.Addr>>shift == avoid {
		// The best hole is inside the chunk we are clearing; placing
		// there would be self-defeating. Take the first fit that
		// starts elsewhere: below the chunk, else above it.
		g, ok = m.FS.PeekFirstFit(size, 0)
		if ok && g.Addr>>shift == avoid {
			g, ok = m.FS.PeekFirstFit(size, (avoid+1)<<shift)
		}
	}
	return g.Addr, ok
}

// cover grows the census to every chunk below address end.
func (c *census) cover(end word.Addr) {
	if n := int((end-1)>>c.shift) + 1; n > len(c.chunks) {
		c.chunks = append(c.chunks, make([]chunk, n-len(c.chunks))...)
	}
}

// count adds d (+1 or -1) times span s to the census of each chunk it
// intersects.
//
//compactlint:noalloc
func (c *census) count(s heap.Span, d int32) {
	for k := s.Addr >> c.shift; k <= (s.End()-1)>>c.shift; k++ {
		lo := max(s.Addr, k<<c.shift)
		hi := min(s.End(), (k+1)<<c.shift)
		ch := &c.chunks[k]
		ch.words += word.Size(d) * (hi - lo)
		ch.objs += d
	}
}

//compactlint:noalloc
func bySparsity(x, y sparseChunk) int {
	if x.words != y.words {
		return cmp.Compare(x.words, y.words)
	}
	return cmp.Compare(x.index, y.index)
}

//compactlint:noalloc
func byAddr(x, y heap.Object) int { return cmp.Compare(x.Span.Addr, y.Span.Addr) }

func init() {
	mm.Register("threshold", func() sim.Manager { return New() })
}
