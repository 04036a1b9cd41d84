package tlsf

import (
	"math/rand"
	"testing"

	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

func reset(capacity word.Size) *Manager {
	m := New()
	m.Reset(sim.Config{M: capacity, N: 64, C: -1, Capacity: capacity})
	return m
}

func TestMapping(t *testing.T) {
	cases := []struct {
		size   word.Size
		fl, sl int
	}{
		{1, 0, 0}, {2, 1, 0}, {3, 1, 1}, {4, 2, 0}, {7, 2, 3},
		{16, 4, 0}, {17, 4, 1}, {31, 4, 15}, {32, 5, 0},
		{48, 5, 8}, {1024, 10, 0}, {1024 + 64, 10, 1},
	}
	for _, c := range cases {
		fl, sl := mapping(c.size)
		if fl != c.fl || sl != c.sl {
			t.Errorf("mapping(%d) = (%d,%d), want (%d,%d)", c.size, fl, sl, c.fl, c.sl)
		}
	}
}

func TestMappingSearchGuaranteesFit(t *testing.T) {
	// Every block in class >= mappingSearch(size) must fit size.
	for size := word.Size(1); size <= 4096; size++ {
		fl, sl := mappingSearch(size)
		// The smallest block that maps into (fl, sl):
		var minBlock word.Size
		if fl < slShift {
			minBlock = word.Pow2(fl) + word.Size(sl)
		} else {
			minBlock = word.Pow2(fl) + word.Size(sl)<<uint(fl-slShift)
		}
		if minBlock < size {
			t.Fatalf("size %d: search class (%d,%d) admits block %d < request",
				size, fl, sl, minBlock)
		}
	}
}

func TestAllocateSplitsAndReuses(t *testing.T) {
	m := reset(1024)
	a, err := m.Allocate(1, 100, nil)
	if err != nil || a != 0 {
		t.Fatalf("first alloc at %d (%v)", a, err)
	}
	b, err := m.Allocate(2, 50, nil)
	if err != nil || b != 100 {
		t.Fatalf("second alloc at %d (%v), want 100", b, err)
	}
	m.Free(1, heap.Span{Addr: 0, Size: 100})
	c, err := m.Allocate(3, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Fatalf("freed space not reused: got %d", c)
	}
}

func TestCoalescingBothSides(t *testing.T) {
	m := reset(1 << 12)
	spans := make(map[heap.ObjectID]heap.Span)
	for i := heap.ObjectID(1); i <= 3; i++ {
		a, err := m.Allocate(i, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		spans[i] = heap.Span{Addr: a, Size: 64}
	}
	// Free outer two, then the middle: all three must merge with the
	// trailing space into one block.
	m.Free(1, spans[1])
	m.Free(3, spans[3])
	m.Free(2, spans[2])
	lists := m.FreeLists()
	total := 0
	for _, n := range lists {
		total += n
	}
	if total != 1 {
		t.Fatalf("free blocks after full coalesce = %d, want 1 (%v)", total, lists)
	}
	// And the whole heap is allocatable again.
	if _, err := m.Allocate(9, 1<<12, nil); err != nil {
		t.Fatalf("full-heap alloc after coalesce: %v", err)
	}
}

func TestNoFit(t *testing.T) {
	m := reset(128)
	if _, err := m.Allocate(1, 128, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(2, 1, nil); err != heap.ErrNoFit {
		t.Fatalf("expected ErrNoFit, got %v", err)
	}
}

func TestGoodFitPrefersTightClass(t *testing.T) {
	m := reset(1 << 14)
	// Carve the heap into two free blocks: one small (72) and one huge.
	a1, _ := m.Allocate(1, 72, nil)
	a2, _ := m.Allocate(2, 64, nil) // separator
	m.Free(1, heap.Span{Addr: a1, Size: 72})
	_ = a2
	// A request of 70 rounds up to class search; the 72-block fits and
	// should be chosen over splitting the huge tail.
	a3, err := m.Allocate(3, 70, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a3 != a1 {
		t.Fatalf("good fit chose %d, want the 72-word hole at %d", a3, a1)
	}
}

func TestFreePanicsOnMismatch(t *testing.T) {
	m := reset(1024)
	a, _ := m.Allocate(1, 16, nil)
	if _, err := m.Allocate(2, 16, nil); err != nil {
		t.Fatal(err)
	}
	s := heap.Span{Addr: a, Size: 16}
	for _, c := range []struct {
		what string
		id   heap.ObjectID
		s    heap.Span
	}{
		{"address", 1, heap.Span{Addr: a + 1, Size: 16}},
		{"size", 1, heap.Span{Addr: a, Size: 15}},
		{"ID", 2, s},
		{"address past the heap", 1, heap.Span{Addr: 1024, Size: 16}},
	} {
		if !panics(func() { m.Free(c.id, c.s) }) {
			t.Errorf("Free with a wrong %s did not panic", c.what)
		}
	}
	m.Free(1, s)
	if !panics(func() { m.Free(1, s) }) {
		t.Error("double Free did not panic")
	}
	// The block is handed out again, to another object.
	if b, err := m.Allocate(3, 16, nil); err != nil || b != a {
		t.Fatalf("reallocation at %d (%v), want %d", b, err, a)
	}
	if !panics(func() { m.Free(1, s) }) {
		t.Error("Free of a reallocated block under its old ID did not panic")
	}
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// Fuzz the allocator against a brute-force free-space model.
func TestTLSFAgainstReferenceModel(t *testing.T) {
	const capacity = 1 << 10
	m := reset(capacity)
	used := make([]bool, capacity)
	rng := rand.New(rand.NewSource(13))
	type rec struct {
		id heap.ObjectID
		s  heap.Span
	}
	var live []rec
	next := heap.ObjectID(1)
	for step := 0; step < 6000; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			size := word.Size(1 + rng.Intn(64))
			addr, err := m.Allocate(next, size, nil)
			if err != nil {
				continue // heap can be genuinely fragmented/full
			}
			s := heap.Span{Addr: addr, Size: size}
			for a := s.Addr; a < s.End(); a++ {
				if used[a] {
					t.Fatalf("step %d: TLSF handed out occupied word %d (span %v)", step, a, s)
				}
				used[a] = true
			}
			live = append(live, rec{next, s})
			next++
		} else {
			i := rng.Intn(len(live))
			r := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			m.Free(r.id, r.s)
			for a := r.s.Addr; a < r.s.End(); a++ {
				used[a] = false
			}
		}
	}
	// Drain everything and verify the heap coalesces back to one block.
	for _, r := range live {
		m.Free(r.id, r.s)
	}
	if _, err := m.Allocate(next, capacity, nil); err != nil {
		t.Fatalf("heap did not coalesce to a single block: %v", err)
	}
}

// TestWarmAllocateFreeIsAllocFree pins the warm path: once the heap is
// fragmented, an Allocate/Free pair that splits a block and merges it
// back makes no heap object.
func TestWarmAllocateFreeIsAllocFree(t *testing.T) {
	m := reset(1 << 16)
	for i := heap.ObjectID(1); i <= 300; i++ {
		a, err := m.Allocate(i, 37, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			m.Free(i, heap.Span{Addr: a, Size: 37})
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		a, err := m.Allocate(1000, 200, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.Free(1000, heap.Span{Addr: a, Size: 200})
	})
	if allocs != 0 {
		t.Fatalf("Allocate/Free pair allocates %.1f times", allocs)
	}
}
