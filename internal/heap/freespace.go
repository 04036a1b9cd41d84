package heap

import (
	"errors"
	"fmt"
	"math/bits"

	"compaction/internal/word"
)

// ErrNoFit is returned when no free interval can satisfy a placement
// query.
var ErrNoFit = errors.New("heap: no free interval fits the request")

// FreeSpace tracks the set of maximal free intervals of a heap
// [0, capacity) and answers placement queries. It is the building
// block for the free-list memory managers.
//
// Beside the address index it keeps a per-size-class interval census
// (class k holds intervals of size in [2^k, 2^(k+1))): a one-word
// bitmask rejects unsatisfiable requests in O(1) before any tree
// descent. The (Size, Addr)-ordered index that backs best-fit queries
// is built lazily on first use, so policies that never ask for
// best-fit pay nothing to maintain it.
//
// The zero value is not usable; construct with NewFreeSpace.
type FreeSpace struct {
	byAddr *addrTreap
	bySize *sizeTreap
	cap    word.Size
	free   word.Size

	sizeReady  bool   // bySize mirrors byAddr (built on first best-fit)
	sizeSeed   uint64 // deterministic priority seed for the lazy build
	classBits  uint64 // bit k set iff classCount[k] > 0
	classCount [64]int32
}

// NewFreeSpace returns a FreeSpace in which all of [0, capacity) is
// free.
func NewFreeSpace(capacity word.Size) *FreeSpace {
	if capacity <= 0 {
		panic(fmt.Sprintf("heap.NewFreeSpace: non-positive capacity %d", capacity))
	}
	f := &FreeSpace{
		byAddr:   newAddrTreap(uint64(capacity) | 1),
		sizeSeed: uint64(capacity)<<1 | 1,
		cap:      capacity,
	}
	f.add(Span{Addr: 0, Size: capacity})
	return f
}

// Capacity returns the total heap capacity.
func (f *FreeSpace) Capacity() word.Size { return f.cap }

// FreeWords returns the total number of free words.
func (f *FreeSpace) FreeWords() word.Size { return f.free }

// Intervals returns the number of maximal free intervals.
func (f *FreeSpace) Intervals() int { return f.byAddr.len() }

// classOf returns the size class of a free interval: floor(log2(size)).
func classOf(size word.Size) uint {
	return uint(63 - bits.LeadingZeros64(uint64(size)))
}

func (f *FreeSpace) classAdd(size word.Size) {
	k := classOf(size)
	f.classCount[k]++
	f.classBits |= 1 << k
}

func (f *FreeSpace) classDel(size word.Size) {
	k := classOf(size)
	f.classCount[k]--
	if f.classCount[k] == 0 {
		f.classBits &^= 1 << k
	}
}

// mayFit reports whether some free interval might satisfy a request of
// the given size: false is definitive (no interval fits), true means
// the index must decide. O(1) from the class census alone.
func (f *FreeSpace) mayFit(size word.Size) bool {
	if size <= 0 {
		return false
	}
	k := classOf(size)
	if f.classBits>>(k+1) != 0 {
		return true // some interval of a strictly larger class fits
	}
	// Same-class intervals may or may not reach size; smaller classes
	// cannot.
	return f.classBits&(1<<k) != 0
}

// ensureSize builds the (Size, Addr) index from the address index on
// first best-fit use.
func (f *FreeSpace) ensureSize() {
	if f.sizeReady {
		return
	}
	f.bySize = newSizeTreap(f.sizeSeed)
	f.byAddr.walk(func(s Span) bool {
		f.bySize.insert(s)
		return true
	})
	f.sizeReady = true
}

func (f *FreeSpace) add(s Span) {
	f.byAddr.insert(s)
	if f.sizeReady {
		f.bySize.insert(s)
	}
	f.classAdd(s.Size)
	f.free += s.Size
}

func (f *FreeSpace) del(s Span) {
	if _, ok := f.byAddr.remove(s.Addr); !ok {
		panic(fmt.Sprintf("heap.FreeSpace: interval %v missing from address index", s))
	}
	if f.sizeReady && !f.bySize.remove(s) {
		panic(fmt.Sprintf("heap.FreeSpace: interval %v missing from size index", s))
	}
	f.classDel(s.Size)
	f.free -= s.Size
}

// mutate rewrites interval old as new in place. new must occupy a
// sub-range of the gap old sat in, so address order is preserved and
// the address index can update a single node instead of removing and
// reinserting.
func (f *FreeSpace) mutate(old, new Span) {
	if !f.byAddr.replace(old.Addr, new) {
		panic(fmt.Sprintf("heap.FreeSpace: interval %v missing from address index", old))
	}
	if f.sizeReady {
		if !f.bySize.remove(old) {
			panic(fmt.Sprintf("heap.FreeSpace: interval %v missing from size index", old))
		}
		f.bySize.insert(new)
	}
	f.classDel(old.Size)
	f.classAdd(new.Size)
	f.free += new.Size - old.Size
}

// carve removes the placement [at, at+size) from the free interval g,
// keeping the left and right remainders. The common cases (placement
// flush against one end of the interval) mutate the existing node in
// place.
func (f *FreeSpace) carve(g Span, at word.Addr, size word.Size) {
	left := Span{Addr: g.Addr, Size: at - g.Addr}
	right := Span{Addr: at + size, Size: g.End() - (at + size)}
	switch {
	case left.Empty() && right.Empty():
		f.del(g)
	case right.Empty():
		f.mutate(g, left)
	case left.Empty():
		f.mutate(g, right)
	default:
		f.mutate(g, left)
		f.add(right)
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
	prev, okP := f.byAddr.floor(s.Addr)
	if okP && prev.End() > s.Addr {
		return fmt.Errorf("heap.Release: span %v overlaps free interval %v", s, prev)
	}
	next, okN := f.byAddr.ceiling(s.Addr)
	if okN && next.Addr < s.End() {
		return fmt.Errorf("heap.Release: span %v overlaps free interval %v", s, next)
	}
	mergeP := okP && prev.End() == s.Addr
	mergeN := okN && next.Addr == s.End()
	switch {
	case mergeP && mergeN:
		f.del(next)
		f.mutate(prev, Span{Addr: prev.Addr, Size: prev.Size + s.Size + next.Size})
	case mergeP:
		f.mutate(prev, Span{Addr: prev.Addr, Size: prev.Size + s.Size})
	case mergeN:
		f.mutate(next, Span{Addr: s.Addr, Size: s.Size + next.Size})
	default:
		f.add(s)
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
	g, at, ok := f.byAddr.firstAlignedFit(size, align)
	if !ok {
		return 0, ErrNoFit
	}
	f.carve(g, at, size)
	return at, nil
}

// PeekFirstFit returns the lowest-addressed free interval of at least
// size words without carving it.
func (f *FreeSpace) PeekFirstFit(size word.Size) (Span, bool) {
	if !f.mayFit(size) {
		return Span{}, false
	}
	return f.byAddr.firstFit(size)
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
	_, at, ok := f.byAddr.firstAlignedFit(size, align)
	return at, ok
}

// Gaps calls fn for each maximal free interval in address order until
// fn returns false.
func (f *FreeSpace) Gaps(fn func(Span) bool) {
	f.byAddr.walk(fn)
}

// LargestGap returns the size of the largest free interval, or 0 if
// the heap is completely full.
func (f *FreeSpace) LargestGap() word.Size {
	return f.byAddr.maxGap()
}

// Validate checks the internal consistency of the free-space indexes:
// intervals are disjoint, maximal (no two adjacent free intervals),
// within capacity, identical across the indexes, their total matches
// the free-word counter, and the size-class census matches a
// recomputation. It is O(n log n) and intended for tests. Validation
// forces the lazy size index so the cross-check is always exercised.
func (f *FreeSpace) Validate() error {
	f.ensureSize()
	var (
		prev    *Span
		total   word.Size
		count   int
		problem error
		classes [64]int32
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
		classes[classOf(s.Size)]++
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
	if count != f.byAddr.len() || count != f.bySize.len() {
		return fmt.Errorf("heap: index sizes diverge: walk=%d addr=%d size=%d",
			count, f.byAddr.len(), f.bySize.len())
	}
	for k, want := range classes {
		if f.classCount[k] != want {
			return fmt.Errorf("heap: size-class %d census %d, recomputed %d", k, f.classCount[k], want)
		}
		if want > 0 != (f.classBits&(1<<k) != 0) {
			return fmt.Errorf("heap: size-class %d bitmask inconsistent with census %d", k, want)
		}
	}
	return nil
}
