package heap

import (
	"errors"
	"fmt"

	"compaction/internal/word"
)

// ErrNoFit is returned when no free interval can satisfy a placement
// query.
var ErrNoFit = errors.New("heap: no free interval fits the request")

// FreeSpace tracks the set of maximal free intervals of a heap
// [0, capacity) and answers placement queries. It is the building
// block for the free-list memory managers.
//
// The intervals sit in a B+tree by address whose inner nodes record
// the largest interval under each child (freetree.go). A placement
// descends it once, recording its path, and carves the chosen
// interval in place on that path; a release finds both neighbours in
// one descent and rewrites, inserts or joins there. The tree's root
// records the largest interval, so an unsatisfiable request is
// rejected in O(1) before any descent. The same B+tree by (Size, Addr)
// backs best-fit; it is built lazily on first use, so policies that
// never ask for best-fit pay nothing to maintain it.
//
// The zero value is not usable; construct with NewFreeSpace.
type FreeSpace struct {
	byAddr freeTree
	bySize freeTree
	cap    word.Size
	free   word.Size

	sizeReady bool // bySize mirrors byAddr (built on first best-fit)
}

// NewFreeSpace returns a FreeSpace in which all of [0, capacity) is
// free.
func NewFreeSpace(capacity word.Size) *FreeSpace {
	if capacity <= 0 {
		panic(fmt.Sprintf("heap.NewFreeSpace: non-positive capacity %d", capacity))
	}
	f := &FreeSpace{cap: capacity}
	f.byAddr.init(false)
	whole := Span{Addr: 0, Size: capacity}
	f.byAddr.insert(whole)
	f.gained(whole)
	return f
}

// Capacity returns the total heap capacity.
func (f *FreeSpace) Capacity() word.Size { return f.cap }

// FreeWords returns the total number of free words.
func (f *FreeSpace) FreeWords() word.Size { return f.free }

// Intervals returns the number of maximal free intervals.
func (f *FreeSpace) Intervals() int { return f.byAddr.count }

// mayFit reports whether some free interval holds a request of the
// given size, from the largest interval the address tree records.
func (f *FreeSpace) mayFit(size word.Size) bool {
	return size > 0 && size <= f.byAddr.top
}

// ensureSize builds the (Size, Addr) index from the address index on
// first best-fit use.
func (f *FreeSpace) ensureSize() {
	if f.sizeReady {
		return
	}
	f.bySize.init(true)
	f.byAddr.walk(func(s Span) bool {
		f.bySize.insert(s)
		return true
	})
	f.sizeReady = true
}

// gained and lost record an interval that entered or left the address
// index in the size index and the free-word count.
func (f *FreeSpace) gained(s Span) {
	if f.sizeReady {
		f.bySize.insert(s)
	}
	f.free += s.Size
}

func (f *FreeSpace) lost(s Span) {
	if f.sizeReady && !f.bySize.remove(s) {
		panic(fmt.Sprintf("heap.FreeSpace: interval %v missing from size index", s))
	}
	f.free -= s.Size
}

// carve removes the placement [at, at+size) from the free interval g,
// at which the address index's path points, keeping the left and
// right remainders. A remainder takes g's entry in place; only a
// placement strictly inside g inserts a second entry.
func (f *FreeSpace) carve(g Span, at word.Addr, size word.Size) {
	left := Span{Addr: g.Addr, Size: at - g.Addr}
	right := Span{Addr: at + size, Size: g.End() - (at + size)}
	f.lost(g)
	switch {
	case left.Empty() && right.Empty():
		f.byAddr.deleteAt()
	case right.Empty():
		f.byAddr.set(left)
	case left.Empty():
		f.byAddr.set(right)
	default:
		f.byAddr.set(left)
		f.byAddr.onward()
		f.byAddr.insertAt(right)
	}
	if !left.Empty() {
		f.gained(left)
	}
	if !right.Empty() {
		f.gained(right)
	}
}

// Reserve marks the exact span s as allocated. It fails if any word of
// s is not currently free.
func (f *FreeSpace) Reserve(s Span) error {
	if s.Empty() {
		return fmt.Errorf("heap.Reserve: empty span %v", s)
	}
	if s.Addr < 0 || s.End() > f.cap {
		return fmt.Errorf("heap.Reserve: span %v outside capacity %d", s, f.cap)
	}
	g, ok := f.byAddr.floor(s.Addr)
	if !ok || !g.Contains(s) {
		return fmt.Errorf("heap.Reserve: span %v is not entirely free", s)
	}
	f.carve(g, s.Addr, s.Size)
	return nil
}

// IsFree reports whether every word of s is free.
func (f *FreeSpace) IsFree(s Span) bool {
	if s.Empty() || s.Addr < 0 || s.End() > f.cap {
		return false
	}
	g, ok := f.byAddr.floor(s.Addr)
	return ok && g.Contains(s)
}

// Release returns the span s to the free set, coalescing with adjacent
// free intervals. It fails if s overlaps an already-free word.
func (f *FreeSpace) Release(s Span) error {
	if s.Empty() {
		return fmt.Errorf("heap.Release: empty span %v", s)
	}
	if s.Addr < 0 || s.End() > f.cap {
		return fmt.Errorf("heap.Release: span %v outside capacity %d", s, f.cap)
	}
	prev, next, okP, okN := f.byAddr.neighbours(s.Addr)
	if okP && prev.End() > s.Addr {
		return fmt.Errorf("heap.Release: span %v overlaps free interval %v", s, prev)
	}
	if okN && next.Addr < s.End() {
		return fmt.Errorf("heap.Release: span %v overlaps free interval %v", s, next)
	}
	// The path points between prev and next: rewrite the neighbour s
	// joins in place, and delete next last, since that alone may
	// reshape the tree.
	t := &f.byAddr
	switch mergeP, mergeN := okP && prev.End() == s.Addr, okN && next.Addr == s.End(); {
	case mergeP && mergeN:
		joined := Span{Addr: prev.Addr, Size: prev.Size + s.Size + next.Size}
		t.back()
		t.set(joined)
		t.onward()
		t.settle()
		t.deleteAt()
		f.lost(prev)
		f.lost(next)
		f.gained(joined)
	case mergeP:
		joined := Span{Addr: prev.Addr, Size: prev.Size + s.Size}
		t.back()
		t.set(joined)
		f.lost(prev)
		f.gained(joined)
	case mergeN:
		joined := Span{Addr: s.Addr, Size: s.Size + next.Size}
		t.settle()
		t.set(joined)
		f.lost(next)
		f.gained(joined)
	default:
		t.insertAt(s)
		f.gained(s)
	}
	return nil
}

// AllocFirstFit places size words in the lowest-addressed free interval
// that fits and returns the placement address.
func (f *FreeSpace) AllocFirstFit(size word.Size) (word.Addr, error) {
	if !f.mayFit(size) {
		return 0, ErrNoFit
	}
	g, ok := f.byAddr.firstFit(size)
	if !ok {
		return 0, ErrNoFit
	}
	f.carve(g, g.Addr, size)
	return g.Addr, nil
}

// AllocBestFit places size words in the smallest free interval that
// fits (ties broken by lowest address).
func (f *FreeSpace) AllocBestFit(size word.Size) (word.Addr, error) {
	if !f.mayFit(size) {
		return 0, ErrNoFit
	}
	f.ensureSize()
	g, ok := f.bySize.bestFit(size)
	if !ok {
		return 0, ErrNoFit
	}
	f.byAddr.floor(g.Addr)
	f.carve(g, g.Addr, size)
	return g.Addr, nil
}

// AllocWorstFit places size words at the start of the largest free
// interval.
func (f *FreeSpace) AllocWorstFit(size word.Size) (word.Addr, error) {
	if !f.mayFit(size) {
		return 0, ErrNoFit
	}
	g, ok := f.byAddr.worstFit(size)
	if !ok {
		return 0, ErrNoFit
	}
	f.carve(g, g.Addr, size)
	return g.Addr, nil
}

// AllocNextFit places size words in the first interval at or after the
// cursor address, wrapping around to the lowest interval if necessary.
// It returns the placement address; the caller advances its cursor to
// the returned address plus size.
func (f *FreeSpace) AllocNextFit(size word.Size, cursor word.Addr) (word.Addr, error) {
	if !f.mayFit(size) {
		return 0, ErrNoFit
	}
	g, ok := f.byAddr.firstFitFrom(size, cursor)
	if !ok {
		g, ok = f.byAddr.firstFit(size)
		if !ok {
			return 0, ErrNoFit
		}
	}
	f.carve(g, g.Addr, size)
	return g.Addr, nil
}

// AllocAlignedFirstFit places size words at the lowest address that is
// a multiple of align and entirely free.
func (f *FreeSpace) AllocAlignedFirstFit(size, align word.Size) (word.Addr, error) {
	if !f.mayFit(size) {
		return 0, ErrNoFit
	}
	at, ok := f.byAddr.firstAlignedFit(size, align)
	if !ok {
		return 0, ErrNoFit
	}
	f.carve(f.byAddr.at(), at, size)
	return at, nil
}

// PeekFirstFit returns the lowest-addressed free interval of at least
// size words that starts at or after from, without carving it.
func (f *FreeSpace) PeekFirstFit(size word.Size, from word.Addr) (Span, bool) {
	if !f.mayFit(size) {
		return Span{}, false
	}
	return f.byAddr.firstFitFrom(size, from)
}

// PeekBestFit returns the smallest free interval of at least size
// words (ties by lowest address) without carving it.
func (f *FreeSpace) PeekBestFit(size word.Size) (Span, bool) {
	if !f.mayFit(size) {
		return Span{}, false
	}
	f.ensureSize()
	return f.bySize.bestFit(size)
}

// PeekAlignedFirstFit returns the lowest aligned address at which size
// words are free, without carving.
func (f *FreeSpace) PeekAlignedFirstFit(size, align word.Size) (word.Addr, bool) {
	if !f.mayFit(size) {
		return 0, false
	}
	return f.byAddr.firstAlignedFit(size, align)
}

// Gaps calls fn for each maximal free interval in address order until
// fn returns false.
func (f *FreeSpace) Gaps(fn func(Span) bool) {
	f.byAddr.walk(fn)
}

// LargestGap returns the size of the largest free interval, or 0 if
// the heap is completely full.
func (f *FreeSpace) LargestGap() word.Size {
	return f.byAddr.top
}

// Validate checks the internal consistency of the free-space indexes:
// each tree's own shape (freeTree.check), then the intervals: they
// are disjoint, maximal (no two adjacent free intervals), within
// capacity, identical across the indexes, and their total matches the
// free-word counter. It is O(n log n) and intended for tests. Validation
// forces the lazy size index so the cross-check is always exercised.
func (f *FreeSpace) Validate() error {
	f.ensureSize()
	if err := f.byAddr.check(); err != nil {
		return fmt.Errorf("address index: %w", err)
	}
	if err := f.bySize.check(); err != nil {
		return fmt.Errorf("size index: %w", err)
	}
	var (
		prev    *Span
		total   word.Size
		count   int
		problem error
	)
	f.byAddr.walk(func(s Span) bool {
		if s.Empty() {
			problem = fmt.Errorf("heap: empty free interval %v", s)
			return false
		}
		if s.Addr < 0 || s.End() > f.cap {
			problem = fmt.Errorf("heap: free interval %v outside capacity %d", s, f.cap)
			return false
		}
		if prev != nil {
			if prev.End() > s.Addr {
				problem = fmt.Errorf("heap: overlapping free intervals %v, %v", *prev, s)
				return false
			}
			if prev.End() == s.Addr {
				problem = fmt.Errorf("heap: uncoalesced adjacent intervals %v, %v", *prev, s)
				return false
			}
		}
		cp := s
		prev = &cp
		total += s.Size
		count++
		// Every interval must be in the size index under its exact
		// (Size, Addr) key; with the counts equal, the indexes then
		// hold the same set.
		if !f.bySize.has(s) {
			problem = fmt.Errorf("heap: interval %v missing from size index", s)
			return false
		}
		return true
	})
	if problem != nil {
		return problem
	}
	if total != f.free {
		return fmt.Errorf("heap: free-word counter %d, intervals sum to %d", f.free, total)
	}
	if count != f.byAddr.count || count != f.bySize.count {
		return fmt.Errorf("heap: index sizes diverge: walk=%d addr=%d size=%d",
			count, f.byAddr.count, f.bySize.count)
	}
	return nil
}
