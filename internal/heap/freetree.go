package heap

import (
	"fmt"

	"compaction/internal/word"
)

// fanout is the number of items a freeTree node holds: a leaf's 32
// addresses and 32 sizes fill four cache lines each.
const fanout = 32

const (
	minFill   = fanout / 4     // a non-root node below this joins or borrows from a sibling
	mergeMax  = fanout * 3 / 4 // siblings merge when their items fit in this many
	maxHeight = 32             // far above the six levels 2^24 intervals take
)

// freeTree is a B+tree of disjoint free intervals in one of two
// orders. By address, each inner node also records the largest
// interval size under each child, which serves the first-, next-,
// worst- and aligned-fit descents. By (Size, Addr), it serves
// best-fit.
//
// Leaves hold the intervals inline. An inner node holds each child's
// first interval as that child's separator. Every operation starts
// with a descent that records its path, and an update rewrites one
// leaf plus the separators and maxima on that path.
type freeTree struct {
	root   *node
	height int // levels; 1 while the root is a leaf
	count  int
	top    word.Size // largest interval size (address order only)
	bySize bool

	path   [maxHeight]step // the last descent, root first
	below  word.Size       // if > 0, every item left of the path is smaller (firstFit, worstFit)
	leaves []*node         // recycled leaves
	inners []*node         // recycled inner nodes, innards attached
}

// node is a freeTree node. A leaf holds up to fanout intervals, in the
// tree's order, as parallel arrays of addresses and sizes, so an
// address search or a size scan reads one array; in is nil. An inner
// node holds in the same arrays the first interval under each child;
// its children, and the largest interval size under each, sit in in.
// A leaf thus carries a single pointer, placed first, and the
// collector scans one word of it.
type node struct {
	in   *innards
	n    int
	addr [fanout]word.Addr
	size [fanout]word.Size
}

type innards struct {
	kid [fanout]*node
	max [fanout]word.Size // address order only
}

// entry returns item i.
//
//compactlint:noalloc
func (nd *node) entry(i int) Span { return Span{Addr: nd.addr[i], Size: nd.size[i]} }

func (nd *node) setEntry(i int, s Span) { nd.addr[i], nd.size[i] = s.Addr, s.Size }

// step is one level of a path: a node and the index taken in it. At
// the leaf the index is an entry position, which may equal n.
type step struct {
	nd *node
	i  int
}

func (t *freeTree) init(bySize bool) {
	t.bySize = bySize
	t.root = t.alloc(false)
	t.height = 1
}

// before reports whether a precedes b in the tree's order.
func (t *freeTree) before(a, b Span) bool {
	if t.bySize && a.Size != b.Size {
		return a.Size < b.Size
	}
	return a.Addr < b.Addr
}

// seek descends towards k and records the path: at each inner level
// the last child whose separator does not follow k (the first child
// if every one does), and at the leaf the number of entries that do
// not follow k.
//
//compactlint:noalloc
func (t *freeTree) seek(k Span) (*node, int) {
	t.below = 0
	nd := t.root
	for d := 0; ; d++ {
		lo, hi := 0, nd.n
		if t.bySize {
			for lo < hi {
				m := int(uint(lo+hi) >> 1)
				if k.Size < nd.size[m] || k.Size == nd.size[m] && k.Addr < nd.addr[m] {
					hi = m
				} else {
					lo = m + 1
				}
			}
		} else {
			for lo < hi {
				m := int(uint(lo+hi) >> 1)
				if k.Addr < nd.addr[m] {
					hi = m
				} else {
					lo = m + 1
				}
			}
		}
		if nd.in == nil {
			t.path[d] = step{nd, lo}
			return nd, lo
		}
		lo = max(lo-1, 0)
		t.path[d] = step{nd, lo}
		nd = nd.in.kid[lo]
	}
}

// following returns the first entry of the leaf after the path's, if
// there is one, without moving the path. It is that leaf's separator
// at the deepest level where the path does not take the last child.
//
//compactlint:noalloc
func (t *freeTree) following() (Span, bool) {
	for d := t.height - 2; d >= 0; d-- {
		if p := t.path[d]; p.i+1 < p.nd.n {
			return p.nd.entry(p.i + 1), true
		}
	}
	return Span{}, false
}

// neighbours points the path at the place of address a and returns
// the intervals on either side: prev starts at or below a, next above
// it.
//
//compactlint:noalloc
func (t *freeTree) neighbours(a word.Addr) (prev, next Span, okP, okN bool) {
	leaf, i := t.seek(Span{Addr: a})
	if i > 0 {
		prev, okP = leaf.entry(i-1), true
	}
	if i < leaf.n {
		return prev, leaf.entry(i), okP, true
	}
	next, okN = t.following()
	return prev, next, okP, okN
}

// floor returns the interval with the greatest start address <= a and
// points the path at it.
//
//compactlint:noalloc
func (t *freeTree) floor(a word.Addr) (Span, bool) {
	leaf, i := t.seek(Span{Addr: a})
	if i == 0 {
		return Span{}, false
	}
	t.path[t.height-1].i = i - 1
	return leaf.entry(i - 1), true
}

// at returns the entry the path points at.
func (t *freeTree) at() Span {
	p := t.path[t.height-1]
	return p.nd.entry(p.i)
}

// back and onward move the path one entry back or on within its leaf;
// onward may leave it past the leaf's last entry.
func (t *freeTree) back()   { t.path[t.height-1].i-- }
func (t *freeTree) onward() { t.path[t.height-1].i++ }

// settle moves a path that points past the end of its leaf to the
// first entry of the following leaf; the caller knows there is one.
func (t *freeTree) settle() {
	if p := t.path[t.height-1]; p.i < p.nd.n {
		return
	}
	d := t.height - 2
	for t.path[d].i+1 == t.path[d].nd.n {
		d--
	}
	t.path[d].i++
	for ; d < t.height-1; d++ {
		t.path[d+1] = step{t.path[d].nd.in.kid[t.path[d].i], 0}
	}
}

// firstFit returns the lowest-addressed interval of at least size
// words and points the path at it.
//
//compactlint:noalloc
func (t *freeTree) firstFit(size word.Size) (Span, bool) {
	if t.top < size {
		return Span{}, false
	}
	t.below = size
	return t.fitBelow(t.root, 0, size), true
}

// worstFit returns the lowest-addressed interval among the largest,
// provided it holds size words, and points the path at it.
//
//compactlint:noalloc
func (t *freeTree) worstFit(size word.Size) (Span, bool) {
	if t.top < size {
		return Span{}, false
	}
	t.below = t.top
	return t.fitBelow(t.root, 0, t.top), true
}

// fitBelow descends from nd, at level d, to the first interval of at
// least size words under it, following the maxima, and records the
// path. The caller knows nd's maximum reaches size.
//
//compactlint:noalloc
func (t *freeTree) fitBelow(nd *node, d int, size word.Size) Span {
	for ; nd.in != nil; d++ {
		i := firstAtLeast(&nd.in.max, size)
		t.path[d] = step{nd, i}
		nd = nd.in.kid[i]
	}
	i := firstAtLeast(&nd.size, size)
	t.path[d] = step{nd, i}
	return nd.entry(i)
}

// firstAtLeast returns the index of the first of sizes that is at
// least size; the caller knows one of the node's items is. It tests
// four at a time. The items past the node's count are stale, but the
// block holding the first fit ends the block loop before any block
// lying wholly past the count.
//
//compactlint:noalloc
func firstAtLeast(sizes *[fanout]word.Size, size word.Size) int {
	i := 0
	for i < fanout-4 && max(sizes[i], sizes[i+1], sizes[i+2], sizes[i+3]) < size {
		i += 4
	}
	for sizes[i] < size {
		i++
	}
	return i
}

// firstFitFrom returns the lowest-addressed interval starting at or
// after from with at least size words, and points the path at it.
func (t *freeTree) firstFitFrom(size word.Size, from word.Addr) (Span, bool) {
	t.below = 0
	if t.top < size {
		return Span{}, false
	}
	return t.fitFrom(t.root, 0, size, from)
}

func (t *freeTree) fitFrom(nd *node, d int, size word.Size, from word.Addr) (Span, bool) {
	// Items before i lie wholly below from: at the leaf, entries that
	// start below it; above, children before the last one whose
	// separator does not pass it.
	i := 0
	for i < nd.n && nd.addr[i] < from {
		i++
	}
	if nd.in == nil {
		for ; i < nd.n; i++ {
			if nd.size[i] >= size {
				t.path[d] = step{nd, i}
				return nd.entry(i), true
			}
		}
		return Span{}, false
	}
	if i == nd.n || (i > 0 && nd.addr[i] > from) {
		i--
	}
	if nd.in.max[i] >= size {
		if s, ok := t.fitFrom(nd.in.kid[i], d+1, size, from); ok {
			t.path[d] = step{nd, i}
			return s, true
		}
	}
	for i++; i < nd.n; i++ {
		if nd.in.max[i] >= size {
			t.path[d] = step{nd, i}
			return t.fitBelow(nd.in.kid[i], d+1, size), true
		}
	}
	return Span{}, false
}

// firstAlignedFit returns the lowest multiple of align at which size
// words are free, and points the path at the interval holding it.
func (t *freeTree) firstAlignedFit(size, align word.Size) (word.Addr, bool) {
	t.below = 0
	return t.alignedFit(t.root, 0, size, align)
}

func (t *freeTree) alignedFit(nd *node, d int, size, align word.Size) (word.Addr, bool) {
	if nd.in == nil {
		for i := range nd.n {
			if s := nd.entry(i); s.Size >= size && word.AlignUp(s.Addr, align)+size <= s.End() {
				t.path[d] = step{nd, i}
				return word.AlignUp(s.Addr, align), true
			}
		}
		return 0, false
	}
	// Any interval that admits an aligned fit holds size words, so the
	// maxima prune children that cannot help.
	for i, m := range nd.in.max[:nd.n] {
		if m < size {
			continue
		}
		if a, ok := t.alignedFit(nd.in.kid[i], d+1, size, align); ok {
			t.path[d] = step{nd, i}
			return a, true
		}
	}
	return 0, false
}

// bestFit returns the smallest interval of at least size words, the
// lowest-addressed on ties. Size order only.
//
//compactlint:noalloc
func (t *freeTree) bestFit(size word.Size) (Span, bool) {
	leaf, i := t.seek(Span{Addr: -1, Size: size})
	if i < leaf.n {
		return leaf.entry(i), true
	}
	return t.following()
}

// has reports whether the exact interval s is in the tree.
func (t *freeTree) has(s Span) bool {
	leaf, i := t.seek(s)
	return i > 0 && leaf.entry(i-1) == s
}

// insert adds s, which no entry may share a key with.
func (t *freeTree) insert(s Span) {
	t.seek(s)
	t.insertAt(s)
}

// remove deletes the exact interval s. It reports false if s is
// absent.
func (t *freeTree) remove(s Span) bool {
	leaf, i := t.seek(s)
	if i == 0 || leaf.entry(i-1) != s {
		return false
	}
	t.path[t.height-1].i = i - 1
	t.deleteAt()
	return true
}

// set rewrites the entry at the path as s, which must keep the entry's
// place in the order, and refreshes the separators and maxima above.
func (t *freeTree) set(s Span) {
	d := t.height - 1
	p := t.path[d]
	old := p.nd.size[p.i]
	p.nd.setEntry(p.i, s)
	if p.i == 0 {
		t.fixSep(d)
	}
	switch {
	case s.Size > old:
		t.grew(d, s.Size)
	case s.Size < old:
		t.shrank(d, old, s.Size)
	}
}

// insertAt inserts s at the path's leaf position. A full node splits,
// and its new right sibling goes into the parent in turn.
func (t *freeTree) insertAt(s Span) {
	t.count++
	d := t.height - 1
	key, kid, kmax := s, (*node)(nil), word.Size(0)
	for {
		p := t.path[d]
		if p.nd.n < fanout {
			put(p.nd, p.i, key, kid, kmax)
			if p.i == 0 {
				t.fixSep(d)
			}
			t.grew(d, s.Size)
			return
		}
		y := t.split(p.nd, p.i, key, kid, kmax)
		if p.i == 0 {
			t.fixSep(d)
		}
		if d == 0 {
			t.raise(y)
			return
		}
		up := &t.path[d-1]
		if !t.bySize {
			up.nd.in.max[up.i] = maxOf(p.nd)
			kmax = maxOf(y)
		}
		key, kid = y.entry(0), y
		up.i++
		d--
	}
}

// split moves part of the full node nd into a new right sibling and
// places the item at index i of the n+1. An insert at either end
// gives one node the new item alone and leaves the other full, so
// monotone inserts fill nodes instead of leaving each half empty;
// any other insert halves the node.
func (t *freeTree) split(nd *node, i int, key Span, kid *node, kmax word.Size) *node {
	y := t.alloc(nd.in != nil)
	k := (fanout + 1) / 2 // items that stay in nd
	switch i {
	case 0:
		k = 1
	case fanout:
		k = fanout
	}
	if i < k {
		moveItems(y, 0, nd, k-1, fanout)
		y.n, nd.n = fanout-k+1, k-1
		put(nd, i, key, kid, kmax)
	} else {
		moveItems(y, 0, nd, k, fanout)
		y.n, nd.n = fanout-k, k
		put(y, i-k, key, kid, kmax)
	}
	return y
}

// raise gives the tree a new root above the old one and its new right
// sibling y.
func (t *freeTree) raise(y *node) {
	if t.height == maxHeight {
		panic(fmt.Sprintf("heap: free-interval tree deeper than %d levels", maxHeight))
	}
	r := t.alloc(true)
	r.n = 2
	r.setEntry(0, t.root.entry(0))
	r.setEntry(1, y.entry(0))
	r.in.kid[0], r.in.kid[1] = t.root, y
	if !t.bySize {
		r.in.max[0], r.in.max[1] = maxOf(t.root), maxOf(y)
		t.top = max(r.in.max[0], r.in.max[1])
	}
	t.root = r
	t.height++
}

// deleteAt removes the entry at the path, then restores the shape on
// the way up.
func (t *freeTree) deleteAt() {
	d := t.height - 1
	p := t.path[d]
	v := p.nd.size[p.i]
	cut(p.nd, p.i)
	t.count--
	if p.i == 0 && p.nd.n > 0 {
		t.fixSep(d)
	}
	t.below = 0 // the path's index now names the entry after the one cut
	t.shrank(d, v, 0)
	t.rebalance(d)
}

// rebalance restores the shape after the node at path level d lost an
// item: an empty node leaves its parent, an underfull one merges with
// a sibling or borrows from it, and a root with one child gives way to
// the child.
func (t *freeTree) rebalance(d int) {
	for ; d > 0; d-- {
		x := t.path[d].nd
		if x.n >= minFill {
			break
		}
		p, ci := t.path[d-1].nd, t.path[d-1].i
		if x.n == 0 {
			cut(p, ci)
			t.recycle(x)
			if ci == 0 && p.n > 0 {
				t.fixSep(d - 1)
			}
			continue
		}
		if p.n == 1 {
			break // no sibling
		}
		j := max(ci-1, 0) // the pair is p's children j and j+1
		a, b := p.in.kid[j], p.in.kid[j+1]
		if a.n+b.n > mergeMax {
			t.even(p, j)
			break
		}
		moveItems(a, a.n, b, 0, b.n)
		a.n += b.n
		if !t.bySize {
			p.in.max[j] = max(p.in.max[j], p.in.max[j+1])
		}
		cut(p, j+1)
		t.recycle(b)
	}
	for t.height > 1 && t.root.n == 1 {
		old := t.root
		t.root = old.in.kid[0]
		t.recycle(old)
		t.height--
	}
}

// even shares the items of p's children j and j+1 equally between
// them.
func (t *freeTree) even(p *node, j int) {
	a, b := p.in.kid[j], p.in.kid[j+1]
	half := (a.n + b.n) / 2
	if k := a.n - half; k > 0 {
		moveItems(b, k, b, 0, b.n)
		moveItems(b, 0, a, half, a.n)
		a.n, b.n = half, b.n+k
	} else {
		k = -k
		moveItems(a, a.n, b, 0, k)
		moveItems(b, 0, b, k, b.n)
		a.n, b.n = half, b.n-k
	}
	p.setEntry(j+1, b.entry(0))
	if !t.bySize {
		p.in.max[j], p.in.max[j+1] = maxOf(a), maxOf(b)
	}
}

// fixSep copies the first entry under the node at path level d into
// the separators above it, up to the first level where it is not the
// first child.
func (t *freeTree) fixSep(d int) {
	first := t.path[d].nd.entry(0)
	for ; d > 0; d-- {
		p := t.path[d-1]
		p.nd.setEntry(p.i, first)
		if p.i != 0 {
			return
		}
	}
}

// grew records that an interval of size v now lies under the node at
// path level d, raising the maxima above as far as v exceeds them.
func (t *freeTree) grew(d int, v word.Size) {
	if t.bySize {
		return
	}
	for ; d > 0; d-- {
		p := t.path[d-1]
		if p.nd.in.max[p.i] >= v {
			return
		}
		p.nd.in.max[p.i] = v
	}
	t.top = max(t.top, v)
}

// shrank records that an interval of size v left the node at path
// level d, or shrank to w, once the node itself is updated. Only a
// level whose stored maximum was v refreshes it, and that refresh
// needs no rescan where the path takes the node's last item and
// t.below says every item left of it is smaller than the new value:
// P_F's first-fit carves from the heap's tail, the last item at every
// level.
func (t *freeTree) shrank(d int, v, w word.Size) {
	if t.bySize {
		return
	}
	for {
		stored := &t.top
		if d > 0 {
			p := t.path[d-1]
			stored = &p.nd.in.max[p.i]
		}
		if *stored != v {
			return
		}
		if c := t.path[d]; t.below == 0 || c.i != c.nd.n-1 || w < t.below-1 {
			w = maxOf(c.nd)
		}
		*stored = w
		if w == v || d == 0 {
			return
		}
		d--
	}
}

// maxOf returns the largest interval size under nd, from its entries
// or its children's maxima.
func maxOf(nd *node) word.Size {
	if nd.in == nil {
		return maxOf4(nd.size[:nd.n])
	}
	return maxOf4(nd.in.max[:nd.n])
}

// maxOf4 returns the largest of m (0 when empty). Four running maxima,
// not one, let the comparisons overlap.
func maxOf4(m []word.Size) word.Size {
	var a, b, c, d word.Size
	for ; len(m) >= 4; m = m[4:] {
		a, b, c, d = max(a, m[0]), max(b, m[1]), max(c, m[2]), max(d, m[3])
	}
	for _, v := range m {
		a = max(a, v)
	}
	return max(a, b, c, d)
}

// put inserts an item at index i of a node with room for it.
func put(nd *node, i int, key Span, kid *node, kmax word.Size) {
	moveItems(nd, i+1, nd, i, nd.n)
	nd.setEntry(i, key)
	if kid != nil {
		nd.in.kid[i], nd.in.max[i] = kid, kmax
	}
	nd.n++
}

// cut removes the item at index i.
func cut(nd *node, i int) {
	moveItems(nd, i, nd, i+1, nd.n)
	nd.n--
}

// moveItems copies src's items [from, to) into dst from index at on;
// the ranges may overlap. Counts are the caller's to set.
func moveItems(dst *node, at int, src *node, from, to int) {
	copy(dst.addr[at:], src.addr[from:to])
	copy(dst.size[at:], src.size[from:to])
	if src.in != nil {
		copy(dst.in.kid[at:], src.in.kid[from:to])
		copy(dst.in.max[at:], src.in.max[from:to])
	}
}

// alloc takes a node from the pool, or makes one.
func (t *freeTree) alloc(inner bool) *node {
	pool := &t.leaves
	if inner {
		pool = &t.inners
	}
	if k := len(*pool) - 1; k >= 0 {
		nd := (*pool)[k]
		*pool = (*pool)[:k]
		nd.n = 0
		return nd
	}
	nd := &node{}
	if inner {
		nd.in = &innards{}
	}
	return nd
}

func (t *freeTree) recycle(nd *node) {
	if nd.in == nil {
		t.leaves = append(t.leaves, nd)
	} else {
		t.inners = append(t.inners, nd)
	}
}

// walk visits the entries in order until fn returns false.
func (t *freeTree) walk(fn func(Span) bool) { walkNode(t.root, fn) }

func walkNode(nd *node, fn func(Span) bool) bool {
	if nd.in == nil {
		for i := range nd.n {
			if !fn(nd.entry(i)) {
				return false
			}
		}
		return true
	}
	for _, k := range nd.in.kid[:nd.n] {
		if !walkNode(k, fn) {
			return false
		}
	}
	return true
}

// check verifies the tree itself: entries strictly ordered, each
// separator equal to its child's first entry, each stored maximum (and
// the tree's largest size) equal to a recomputation, every leaf at one
// depth, no empty node but the root, and the entry count.
func (t *freeTree) check() error {
	c := treeCheck{t: t}
	m, err := c.visit(t.root, 0)
	switch {
	case err != nil:
		return err
	case c.seen != t.count:
		return fmt.Errorf("heap: tree holds %d entries, counts %d", c.seen, t.count)
	case !t.bySize && m != t.top:
		return fmt.Errorf("heap: tree's largest interval %d, recomputed %d", t.top, m)
	}
	return nil
}

type treeCheck struct {
	t    *freeTree
	prev Span
	seen int
}

// visit checks the subtree under nd, at depth d, and returns its
// largest interval size.
func (c *treeCheck) visit(nd *node, d int) (word.Size, error) {
	t := c.t
	if nd.n == 0 && nd != t.root {
		return 0, fmt.Errorf("heap: empty tree node at depth %d", d)
	}
	if leaf := nd.in == nil; leaf != (d == t.height-1) {
		return 0, fmt.Errorf("heap: tree node at depth %d of height %d is leaf=%v", d, t.height, leaf)
	}
	var m word.Size
	if nd.in == nil {
		for i := range nd.n {
			s := nd.entry(i)
			if c.seen > 0 && !t.before(c.prev, s) {
				return 0, fmt.Errorf("heap: tree entries %v, %v out of order", c.prev, s)
			}
			c.prev = s
			c.seen++
			m = max(m, s.Size)
		}
		return m, nil
	}
	for i, k := range nd.in.kid[:nd.n] {
		km, err := c.visit(k, d+1)
		if err != nil {
			return 0, err
		}
		if sep, first := nd.entry(i), k.entry(0); sep != first {
			return 0, fmt.Errorf("heap: separator %v at depth %d, its child starts with %v", sep, d, first)
		}
		if !t.bySize && nd.in.max[i] != km {
			return 0, fmt.Errorf("heap: stored maximum %d under separator %v at depth %d, recomputed %d",
				nd.in.max[i], nd.entry(i), d, km)
		}
		m = max(m, km)
	}
	return m, nil
}
