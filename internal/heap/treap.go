package heap

import (
	"compaction/internal/word"
)

// addrTreap is a randomized balanced search tree of disjoint spans
// keyed by start address. Each node is augmented with the maximum span
// size in its subtree, which supports O(log n) first-fit and worst-fit
// queries over free intervals.
type addrTreap struct {
	root *addrNode
	rng  xorshift
	n    int
	pool *addrNode // freelist of recycled nodes, chained via right
}

type addrNode struct {
	span        Span
	prio        uint64
	left, right *addrNode
	maxSize     word.Size
}

// xorshift is a small deterministic PRNG for treap priorities, seeded
// per-structure so simulations are reproducible.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func newAddrTreap(seed uint64) *addrTreap {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &addrTreap{rng: xorshift(seed)}
}

func (t *addrTreap) len() int { return t.n }

func addrUpdate(n *addrNode) {
	if n == nil {
		return
	}
	n.maxSize = n.span.Size
	if n.left != nil && n.left.maxSize > n.maxSize {
		n.maxSize = n.left.maxSize
	}
	if n.right != nil && n.right.maxSize > n.maxSize {
		n.maxSize = n.right.maxSize
	}
}

// addrSplit splits the tree into nodes with span.Addr < key and >= key.
func addrSplit(n *addrNode, key word.Addr) (l, r *addrNode) {
	if n == nil {
		return nil, nil
	}
	if n.span.Addr < key {
		n.right, r = addrSplit(n.right, key)
		addrUpdate(n)
		return n, r
	}
	l, n.left = addrSplit(n.left, key)
	addrUpdate(n)
	return l, n
}

func addrMerge(l, r *addrNode) *addrNode {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio >= r.prio:
		l.right = addrMerge(l.right, r)
		addrUpdate(l)
		return l
	default:
		r.left = addrMerge(l, r.left)
		addrUpdate(r)
		return r
	}
}

// newNode takes a node from the freelist, or allocates one. Churn on
// the free-interval set (every carve and coalesce) reuses nodes
// instead of pressuring the garbage collector.
func (t *addrTreap) newNode(s Span) *addrNode {
	if n := t.pool; n != nil {
		t.pool = n.right
		*n = addrNode{span: s, prio: t.rng.next(), maxSize: s.Size}
		return n
	}
	return &addrNode{span: s, prio: t.rng.next(), maxSize: s.Size}
}

func (t *addrTreap) recycle(n *addrNode) {
	n.left = nil
	n.right = t.pool
	t.pool = n
}

// insert adds a span keyed by its start address. The caller must ensure
// no existing node shares the same start address.
func (t *addrTreap) insert(s Span) {
	nn := t.newNode(s)
	l, r := addrSplit(t.root, s.Addr)
	t.root = addrMerge(addrMerge(l, nn), r)
	t.n++
}

// remove deletes the span starting at addr and returns it.
// The second result is false if no such span exists.
func (t *addrTreap) remove(addr word.Addr) (Span, bool) {
	l, r := addrSplit(t.root, addr)
	mid, rest := addrSplit(r, addr+1)
	t.root = addrMerge(l, rest)
	if mid == nil {
		return Span{}, false
	}
	t.n--
	s := mid.span
	t.recycle(mid)
	return s, true
}

// replace rewrites, in place, the span of the node keyed by addr. The
// caller guarantees the new span's start address preserves the node's
// position in address order (true whenever the replacement lies within
// the gap the old interval occupied, as in carving and coalescing).
// This turns the hot carve/release paths into a single root-to-node
// descent instead of four split/merge passes.
func (t *addrTreap) replace(addr word.Addr, s Span) bool {
	return replaceNode(t.root, addr, s)
}

func replaceNode(n *addrNode, addr word.Addr, s Span) bool {
	if n == nil {
		return false
	}
	var ok bool
	switch {
	case addr < n.span.Addr:
		ok = replaceNode(n.left, addr, s)
	case addr > n.span.Addr:
		ok = replaceNode(n.right, addr, s)
	default:
		n.span = s
		ok = true
	}
	if ok {
		addrUpdate(n)
	}
	return ok
}

// floor returns the span with the greatest start address <= addr.
func (t *addrTreap) floor(addr word.Addr) (Span, bool) {
	var best *addrNode
	n := t.root
	for n != nil {
		if n.span.Addr <= addr {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	if best == nil {
		return Span{}, false
	}
	return best.span, true
}

// ceiling returns the span with the least start address >= addr.
func (t *addrTreap) ceiling(addr word.Addr) (Span, bool) {
	var best *addrNode
	n := t.root
	for n != nil {
		if n.span.Addr >= addr {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	if best == nil {
		return Span{}, false
	}
	return best.span, true
}

// firstFit returns the lowest-addressed span with Size >= size.
func (t *addrTreap) firstFit(size word.Size) (Span, bool) {
	n := t.root
	if n == nil || n.maxSize < size {
		return Span{}, false
	}
	for {
		if n.left != nil && n.left.maxSize >= size {
			n = n.left
			continue
		}
		if n.span.Size >= size {
			return n.span, true
		}
		n = n.right // guaranteed non-nil with maxSize >= size
	}
}

// firstFitFrom returns the lowest-addressed span with start address
// >= from and Size >= size.
func (t *addrTreap) firstFitFrom(size word.Size, from word.Addr) (Span, bool) {
	return firstFitFromNode(t.root, size, from)
}

func firstFitFromNode(n *addrNode, size word.Size, from word.Addr) (Span, bool) {
	if n == nil || n.maxSize < size {
		return Span{}, false
	}
	if n.span.Addr >= from {
		if s, ok := firstFitFromNode(n.left, size, from); ok {
			return s, true
		}
		if n.span.Size >= size {
			return n.span, true
		}
	}
	return firstFitFromNode(n.right, size, from)
}

// worstFit returns the lowest-addressed span among those with maximal
// size, provided that size is >= size.
func (t *addrTreap) worstFit(size word.Size) (Span, bool) {
	n := t.root
	if n == nil || n.maxSize < size {
		return Span{}, false
	}
	max := n.maxSize
	for {
		if n.left != nil && n.left.maxSize == max {
			n = n.left
			continue
		}
		if n.span.Size == max {
			return n.span, true
		}
		n = n.right
	}
}

// firstAlignedFit returns the lowest-addressed span that can hold an
// aligned placement of the given size: there must be a multiple of
// align a with span.Addr <= a and a+size <= span.End(). It also returns
// the aligned placement address.
func (t *addrTreap) firstAlignedFit(size, align word.Size) (Span, word.Addr, bool) {
	return alignedFitNode(t.root, size, align)
}

func alignedFitNode(n *addrNode, size, align word.Size) (Span, word.Addr, bool) {
	// Any span that admits an aligned fit has Size >= size, so the
	// maxSize augmentation prunes subtrees that cannot possibly help.
	if n == nil || n.maxSize < size {
		return Span{}, 0, false
	}
	if s, a, ok := alignedFitNode(n.left, size, align); ok {
		return s, a, true
	}
	if n.span.Size >= size {
		a := word.AlignUp(n.span.Addr, align)
		if a+size <= n.span.End() {
			return n.span, a, true
		}
	}
	return alignedFitNode(n.right, size, align)
}

// maxGap returns the largest span size in the tree (0 when empty).
func (t *addrTreap) maxGap() word.Size {
	if t.root == nil {
		return 0
	}
	return t.root.maxSize
}

// walk visits spans in address order until fn returns false.
func (t *addrTreap) walk(fn func(Span) bool) {
	walkNode(t.root, fn)
}

func walkNode(n *addrNode, fn func(Span) bool) bool {
	if n == nil {
		return true
	}
	if !walkNode(n.left, fn) {
		return false
	}
	if !fn(n.span) {
		return false
	}
	return walkNode(n.right, fn)
}
