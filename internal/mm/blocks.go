package mm

import (
	"fmt"
	"math/bits"

	"compaction/internal/heap"
	"compaction/internal/word"
)

// Block names a block of a Blocks store. The zero Block names none.
type Block int32

// block is one slot of a Blocks store: a free block on its class's
// list, an allocated block, or a spare slot waiting for reuse.
type block struct {
	span       heap.Span
	id         heap.ObjectID // the object an allocated block was handed out for
	prev, next Block         // class list links; next also chains the spare slots
	class      int32         // the list a free block is on; -1 while allocated
}

// allocated is the class of a block on no list: an allocated block, a
// spare slot, or slot 0.
const allocated = -1

// Blocks is the boundary-tag block store of the segregated-fit
// managers (tlsf, half-fit). Its blocks tile the heap: each is free
// and on the LIFO list of the class the caller's mapping gives its
// size, or allocated to one object. Blocks live in one slice, linked
// by index, and a slot freed by a merge is reused by the next split,
// so a warm store allocates nothing.
//
// Coalescing finds a block's physical neighbours through address tags
// in a Paged array: a block's first word is tagged with the block
// while it is free or allocated, and a free block's last word too. The
// two never collide, since blocks are disjoint; a one-word free block
// carries both tags in the one word. Every other word reads zero: a
// block's tags are cleared when it leaves its list or is freed. The
// tag of an allocated block leads to its size and the ID it was handed
// out for, so Free checks its caller in O(1).
//
// A bitmap of the non-empty classes, one summary bit per 64 classes,
// finds the first non-empty class at or above a given one in O(1).
type Blocks struct {
	blk      []block // slot 0 stays unused and allocated: Block 0 is none
	spare    Block   // first spare slot
	capacity word.Size
	classOf  func(word.Size) int
	heads    []Block  // per class: the block last linked
	busy     []uint64 // bit c set while class c's list is non-empty
	summary  uint64   // bit w set while busy[w] != 0
	tags     Paged[Block]
}

// Reset empties the store for a heap of the given capacity, whose free
// blocks fall in classes [0, classes) by classOf, and makes the whole
// heap one free block.
func (b *Blocks) Reset(capacity word.Size, classes int, classOf func(word.Size) int) {
	if classes > 64*64 {
		panic(fmt.Sprintf("mm.Blocks: %d classes, at most %d", classes, 64*64))
	}
	b.blk = append(b.blk[:0], block{class: allocated})
	b.spare = 0
	b.capacity = capacity
	b.classOf = classOf
	b.heads = make([]Block, classes)
	b.busy = make([]uint64, (classes+63)/64)
	b.summary = 0
	b.tags.Reset(capacity)
	b.link(b.slot(heap.Span{Addr: 0, Size: capacity}))
}

// Span returns the words block i covers.
func (b *Blocks) Span(i Block) heap.Span { return b.blk[i].span }

// Head returns the block last linked into a class's list, or none.
func (b *Blocks) Head(class int) Block { return b.heads[class] }

// Next returns the block linked into i's list before i, or none.
func (b *Blocks) Next(i Block) Block { return b.blk[i].next }

// FirstFrom returns the head of the first non-empty class at or above
// class, or none.
func (b *Blocks) FirstFrom(class int) Block {
	w := class >> 6
	if w >= len(b.busy) {
		return 0
	}
	if m := b.busy[w] &^ (1<<(class&63) - 1); m != 0 {
		return b.heads[w<<6|bits.TrailingZeros64(m)]
	}
	if s := b.summary &^ (2<<w - 1); s != 0 {
		w = bits.TrailingZeros64(s)
		return b.heads[w<<6|bits.TrailingZeros64(b.busy[w])]
	}
	return 0
}

// Take allocates the first size words of free block i to object id
// and returns their address. The rest of i, if any, becomes a free
// block at the head of its class.
func (b *Blocks) Take(i Block, id heap.ObjectID, size word.Size) word.Addr {
	b.unlink(i)
	s := b.blk[i].span
	if rem := s.Size - size; rem > 0 {
		b.link(b.slot(heap.Span{Addr: s.Addr + size, Size: rem}))
		s.Size = size
	}
	k := &b.blk[i]
	k.span, k.id, k.class = s, id, allocated
	b.tags.Set(s.Addr, i)
	return s.Addr
}

// Free returns the block allocated to id at s, merged with its free
// physical neighbours, to the head of its class. It panics unless s
// is exactly the block handed out for id.
func (b *Blocks) Free(id heap.ObjectID, s heap.Span) {
	var i Block
	if s.Addr >= 0 && s.Addr < b.capacity {
		i = b.tags.Get(s.Addr)
	}
	if k := &b.blk[i]; i == 0 || k.class != allocated || k.span != s || k.id != id {
		panic(fmt.Sprintf("mm.Blocks: Free(%d, %v) matches no block allocated to it", id, s))
	}
	b.tags.Set(s.Addr, 0)
	if s.Addr > 0 {
		// The word before s is the last of its block: tagged there if
		// the block is free, or if it is one word long.
		if p := b.tags.Get(s.Addr - 1); p != 0 && b.blk[p].class != allocated {
			b.unlink(p)
			s = heap.Span{Addr: b.blk[p].span.Addr, Size: b.blk[p].span.Size + s.Size}
			b.drop(p)
		}
	}
	if e := s.End(); e < b.capacity {
		if n := b.tags.Get(e); b.blk[n].class != allocated {
			b.unlink(n)
			s.Size += b.blk[n].span.Size
			b.drop(n)
		}
	}
	b.blk[i].span = s
	b.link(i)
}

// slot returns a spare slot, or a new one, holding span s.
func (b *Blocks) slot(s heap.Span) Block {
	i := b.spare
	if i != 0 {
		b.spare = b.blk[i].next
	} else {
		i = Block(len(b.blk))
		b.blk = append(b.blk, block{})
	}
	b.blk[i] = block{span: s, class: allocated}
	return i
}

// drop makes slot i spare.
func (b *Blocks) drop(i Block) {
	b.blk[i] = block{next: b.spare, class: allocated}
	b.spare = i
}

// link pushes block i onto its class's list and tags its boundaries.
func (b *Blocks) link(i Block) {
	k := &b.blk[i]
	c := b.classOf(k.span.Size)
	k.class, k.prev, k.next = int32(c), 0, b.heads[c]
	if k.next != 0 {
		b.blk[k.next].prev = i
	}
	b.heads[c] = i
	b.busy[c>>6] |= 1 << (c & 63)
	b.summary |= 1 << (c >> 6)
	b.tags.Set(k.span.Addr, i)
	b.tags.Set(k.span.End()-1, i)
}

// unlink takes block i off its class's list and clears its tags.
func (b *Blocks) unlink(i Block) {
	k := &b.blk[i]
	c := int(k.class)
	if k.prev != 0 {
		b.blk[k.prev].next = k.next
	} else {
		b.heads[c] = k.next
	}
	if k.next != 0 {
		b.blk[k.next].prev = k.prev
	}
	if b.heads[c] == 0 {
		if b.busy[c>>6] &^= 1 << (c & 63); b.busy[c>>6] == 0 {
			b.summary &^= 1 << (c >> 6)
		}
	}
	k.class, k.prev, k.next = allocated, 0, 0
	b.tags.Set(k.span.Addr, 0)
	b.tags.Set(k.span.End()-1, 0)
}
