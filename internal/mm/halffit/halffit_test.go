package halffit

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

func TestGuaranteedFitClass(t *testing.T) {
	m := reset(1 << 10)
	// Carve free blocks of 10 and 40 words (classes 3 and 5) separated
	// by live objects.
	a1, _ := m.Allocate(1, 10, nil)
	a2, _ := m.Allocate(2, 4, nil)
	a3, _ := m.Allocate(3, 40, nil)
	a4, _ := m.Allocate(4, 4, nil)
	_ = a2
	_ = a4
	m.Free(1, heap.Span{Addr: a1, Size: 10})
	m.Free(3, heap.Span{Addr: a3, Size: 40})
	// A 12-word request needs class ceil(log2 12) = 4: the 10-word
	// block (class 3) is skipped even though... it doesn't fit anyway;
	// an 8-word request needs class 3: the 10-word block serves it.
	a, err := m.Allocate(5, 8, nil)
	if err != nil || a != a1 {
		t.Fatalf("8-word alloc at %d (%v), want %d", a, err, a1)
	}
	// A 12-word request: class 4 → the 40-word block (class 5) serves.
	a, err = m.Allocate(6, 12, nil)
	if err != nil || a != a3 {
		t.Fatalf("12-word alloc at %d (%v), want %d", a, err, a3)
	}
}

func TestHalfFitWasteTrait(t *testing.T) {
	// The defining trait: a request of 2^k+1 skips blocks of size
	// < 2^(k+1) even if one would fit exactly. Build a heap whose only
	// free blocks are one of size 9 and one of size 16: a 9-word
	// request takes the 16 (class 4), not the exact 9 (class 3).
	m := reset(1 << 10)
	a1, _ := m.Allocate(1, 9, nil)
	m.Allocate(2, 7, nil)
	a3, _ := m.Allocate(3, 16, nil)
	m.Allocate(4, 992-9-7-16, nil) // consume the tail
	m.Free(1, heap.Span{Addr: a1, Size: 9})
	m.Free(3, heap.Span{Addr: a3, Size: 16})
	a, err := m.Allocate(5, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != a3 {
		t.Fatalf("half-fit took %d, expected the class-guaranteed block at %d", a, a3)
	}
}

func TestFallbackScanBeforeFailing(t *testing.T) {
	// Only a size-9 block exists (class 3). A 9-word request's
	// guaranteed class 4 is empty; the fallback scan must find it.
	m := reset(32)
	a1, _ := m.Allocate(1, 9, nil)
	m.Allocate(2, 23, nil)
	m.Free(1, heap.Span{Addr: a1, Size: 9})
	a, err := m.Allocate(3, 9, nil)
	if err != nil || a != a1 {
		t.Fatalf("fallback alloc at %d (%v), want %d", a, err, a1)
	}
}

func TestCoalescing(t *testing.T) {
	m := reset(256)
	spans := make([]heap.Span, 4)
	for i := range spans {
		a, err := m.Allocate(heap.ObjectID(i), 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		spans[i] = heap.Span{Addr: a, Size: 64}
	}
	for i := range spans {
		m.Free(heap.ObjectID(i), spans[i])
	}
	if _, err := m.Allocate(9, 256, nil); err != nil {
		t.Fatalf("heap did not coalesce: %v", err)
	}
}

func TestRandomizedNoOverlap(t *testing.T) {
	const capacity = 1 << 10
	m := reset(capacity)
	used := make([]bool, capacity)
	rng := rand.New(rand.NewSource(41))
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
				continue
			}
			s := heap.Span{Addr: addr, Size: size}
			for a := s.Addr; a < s.End(); a++ {
				if used[a] {
					t.Fatalf("step %d: overlap at %d", step, a)
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

func TestUnitRequestEmptyHeap(t *testing.T) {
	m := reset(4)
	if _, err := m.Allocate(1, 4, nil); err != nil {
		t.Fatal(err)
	}
	// Heap full; a 1-word request must fail cleanly (class 0, no
	// fallback list below).
	if _, err := m.Allocate(2, 1, nil); err != heap.ErrNoFit {
		t.Fatalf("want ErrNoFit, got %v", err)
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
