package mm

import (
	"math/rand"
	"slices"
	"testing"

	"compaction/internal/heap"
	"compaction/internal/word"
)

// blocksModel is a brute-force Blocks: the blocks in address order
// and each class's free list as a slice, head first.
type blocksModel struct {
	blocks  []modelBlock
	lists   [][]heap.Span
	classOf func(word.Size) int
}

type modelBlock struct {
	s    heap.Span
	free bool
	id   heap.ObjectID
}

func (m *blocksModel) find(s heap.Span) int {
	j := slices.IndexFunc(m.blocks, func(b modelBlock) bool { return b.s == s })
	if j < 0 {
		panic("model: no block " + s.String())
	}
	return j
}

func (m *blocksModel) push(s heap.Span) {
	c := m.classOf(s.Size)
	m.lists[c] = slices.Insert(m.lists[c], 0, s)
}

func (m *blocksModel) remove(s heap.Span) {
	c := m.classOf(s.Size)
	m.lists[c] = slices.DeleteFunc(m.lists[c], func(t heap.Span) bool { return t == s })
}

// take mirrors Blocks.Take on the free block s.
func (m *blocksModel) take(s heap.Span, id heap.ObjectID, size word.Size) {
	m.remove(s)
	j := m.find(s)
	m.blocks[j] = modelBlock{s: heap.Span{Addr: s.Addr, Size: size}, id: id}
	if rem := s.Size - size; rem > 0 {
		r := heap.Span{Addr: s.Addr + size, Size: rem}
		m.blocks = slices.Insert(m.blocks, j+1, modelBlock{s: r, free: true})
		m.push(r)
	}
}

// free mirrors Blocks.Free and reports on which sides it merged.
func (m *blocksModel) free(s heap.Span) (before, after bool) {
	lo := m.find(s)
	hi := lo + 1
	if after = hi < len(m.blocks) && m.blocks[hi].free; after {
		m.remove(m.blocks[hi].s)
		s.Size += m.blocks[hi].s.Size
		hi++
	}
	if before = lo > 0 && m.blocks[lo-1].free; before {
		lo--
		p := m.blocks[lo].s
		m.remove(p)
		s = heap.Span{Addr: p.Addr, Size: p.Size + s.Size}
	}
	m.blocks = slices.Replace(m.blocks, lo, hi, modelBlock{s: s, free: true})
	m.push(s)
	return before, after
}

// check compares every list, every FirstFrom answer and the tag of
// every word with the model.
func (m *blocksModel) check(t *testing.T, step int, b *Blocks) {
	t.Helper()
	for c, want := range m.lists {
		var got []heap.Span
		for i := b.Head(c); i != 0; i = b.Next(i) {
			got = append(got, b.Span(i))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: class %d lists %v, want %v", step, c, got, want)
		}
	}
	for c := range m.lists {
		want := heap.Span{}
		for d := c; d < len(m.lists); d++ {
			if len(m.lists[d]) > 0 {
				want = m.lists[d][0]
				break
			}
		}
		got := heap.Span{}
		if i := b.FirstFrom(c); i != 0 {
			got = b.Span(i)
		}
		if got != want {
			t.Fatalf("step %d: FirstFrom(%d) = %v, want %v", step, c, got, want)
		}
	}
	tags := make(map[word.Addr]heap.Span)
	for _, k := range m.blocks {
		if k.free {
			tags[k.s.End()-1] = k.s
		}
		tags[k.s.Addr] = k.s
	}
	for a := word.Addr(0); a < b.capacity; a++ {
		want, tagged := tags[a]
		i := b.tags.Get(a)
		if got := b.blk[i].span; tagged != (i != 0) || (tagged && got != want) {
			t.Fatalf("step %d: word %d tagged with block %d %v, want %v (tagged %v)", step, a, i, got, want, tagged)
		}
	}
}

// TestBlocksAgainstModel drives a Blocks store with random takes, from
// the head or the middle of a list, and frees, against a brute-force
// model: each class list keeps LIFO order, a free merges with free
// neighbours on both sides, and only block boundaries stay tagged. The
// classes span several bitmap words, so FirstFrom reads the summary.
func TestBlocksAgainstModel(t *testing.T) {
	const (
		capacity = 1 << 10
		classes  = 200
	)
	classOf := func(s word.Size) int { return int(min(s, classes) - 1) }
	var b Blocks
	b.Reset(capacity, classes, classOf)
	m := &blocksModel{
		blocks:  []modelBlock{{s: heap.Span{Size: capacity}, free: true}},
		lists:   make([][]heap.Span, classes),
		classOf: classOf,
	}
	m.push(heap.Span{Size: capacity})
	m.check(t, 0, &b)
	rng := rand.New(rand.NewSource(7))
	merged := map[[2]bool]int{}
	next := heap.ObjectID(1)
	for step := 1; step <= 4000; step++ {
		var live []modelBlock
		for _, k := range m.blocks {
			if !k.free {
				live = append(live, k)
			}
		}
		if len(live) == 0 || rng.Intn(2) == 0 {
			i := b.FirstFrom(rng.Intn(classes))
			if i == 0 {
				continue
			}
			if rng.Intn(4) == 0 {
				// A block from the middle of its list.
				for n := rng.Intn(4); n > 0 && b.Next(i) != 0; n-- {
					i = b.Next(i)
				}
			}
			s := b.Span(i)
			size := 1 + rng.Int63n(min(s.Size, 64))
			if a := b.Take(i, next, size); a != s.Addr {
				t.Fatalf("step %d: Take(%v, %d) at %d", step, s, size, a)
			}
			m.take(s, next, size)
			next++
		} else {
			k := live[rng.Intn(len(live))]
			b.Free(k.id, k.s)
			before, after := m.free(k.s)
			merged[[2]bool{before, after}]++
		}
		m.check(t, step, &b)
	}
	for _, sides := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		if merged[sides] == 0 {
			t.Errorf("no free merged with (before, after) = %v: %v", sides, merged)
		}
	}
}
