package heap

import (
	"compaction/internal/word"
)

// sizeTreap is a randomized balanced search tree of spans keyed
// lexicographically by (Size, Addr). It supports the best-fit query:
// the smallest free span of size >= s, ties broken by lowest address.
type sizeTreap struct {
	root *sizeNode
	rng  xorshift
	n    int
	pool *sizeNode // freelist of recycled nodes, chained via right
}

type sizeNode struct {
	span        Span
	prio        uint64
	left, right *sizeNode
}

func newSizeTreap(seed uint64) *sizeTreap {
	if seed == 0 {
		seed = 0xbf58476d1ce4e5b9
	}
	return &sizeTreap{rng: xorshift(seed)}
}

func (t *sizeTreap) len() int { return t.n }

// sizeLess orders spans by (Size, Addr).
func sizeLess(a, b Span) bool {
	if a.Size != b.Size {
		return a.Size < b.Size
	}
	return a.Addr < b.Addr
}

// sizeSplit splits into nodes with span < key and >= key in (Size, Addr)
// order.
func sizeSplit(n *sizeNode, key Span) (l, r *sizeNode) {
	if n == nil {
		return nil, nil
	}
	if sizeLess(n.span, key) {
		n.right, r = sizeSplit(n.right, key)
		return n, r
	}
	l, n.left = sizeSplit(n.left, key)
	return l, n
}

func sizeMerge(l, r *sizeNode) *sizeNode {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio >= r.prio:
		l.right = sizeMerge(l.right, r)
		return l
	default:
		r.left = sizeMerge(l, r.left)
		return r
	}
}

func (t *sizeTreap) insert(s Span) {
	var nn *sizeNode
	if nn = t.pool; nn != nil {
		t.pool = nn.right
		*nn = sizeNode{span: s, prio: t.rng.next()}
	} else {
		nn = &sizeNode{span: s, prio: t.rng.next()}
	}
	l, r := sizeSplit(t.root, s)
	t.root = sizeMerge(sizeMerge(l, nn), r)
	t.n++
}

// remove deletes the exact span s. It returns false if absent.
func (t *sizeTreap) remove(s Span) bool {
	l, r := sizeSplit(t.root, s)
	mid, rest := sizeSplit(r, Span{Addr: s.Addr + 1, Size: s.Size})
	t.root = sizeMerge(l, rest)
	if mid == nil {
		return false
	}
	t.n--
	mid.left = nil
	mid.right = t.pool
	t.pool = mid
	return true
}

// has reports whether the exact span s is in the tree.
func (t *sizeTreap) has(s Span) bool {
	n := t.root
	for n != nil {
		switch {
		case sizeLess(s, n.span):
			n = n.left
		case sizeLess(n.span, s):
			n = n.right
		default:
			return true
		}
	}
	return false
}

// bestFit returns the span with the smallest size >= size, breaking
// ties by lowest address.
func (t *sizeTreap) bestFit(size word.Size) (Span, bool) {
	var best *sizeNode
	n := t.root
	for n != nil {
		if n.span.Size >= size {
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
