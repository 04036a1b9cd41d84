package segregated

import (
	"testing"

	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

func reset(capacity word.Size, n word.Size) *Manager {
	m := New()
	m.Reset(sim.Config{M: capacity, N: n, C: -1, Capacity: capacity})
	return m
}

func TestRunCarving(t *testing.T) {
	m := reset(1<<16, 64)
	// First allocation of class 8 carves a 16-block run.
	if _, err := m.Allocate(1, 8, nil); err != nil {
		t.Fatal(err)
	}
	free := m.ClassFreeBlocks()
	if free[3] != 15 {
		t.Fatalf("after first alloc, class-3 free blocks = %d, want 15 (%v)", free[3], free)
	}
}

func TestClassIsolation(t *testing.T) {
	m := reset(1<<16, 64)
	a8, _ := m.Allocate(1, 8, nil)
	a16, _ := m.Allocate(2, 16, nil)
	// Different classes come from different runs.
	if a8/1024 == a16/1024 && word.ChunkIndex(a8, 128) == word.ChunkIndex(a16, 128) {
		t.Logf("classes share a region: a8=%d a16=%d (allowed but unexpected)", a8, a16)
	}
	m.Free(1, heap.Span{Addr: a8, Size: 8})
	// The freed 8-block must NOT satisfy a 16-word request.
	a16b, _ := m.Allocate(3, 16, nil)
	if a16b == a8 {
		t.Fatalf("class isolation violated: 16-word object in freed 8-block")
	}
}

func TestRoundUpToClass(t *testing.T) {
	m := reset(1<<16, 64)
	a, err := m.Allocate(1, 5, nil) // class 3 (8 words)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Allocate(2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatalf("two live objects share block %d", a)
	}
	// Block stride within the run is the class size 8.
	if d := a - b; d != 8 && d != -8 {
		t.Fatalf("blocks not 8 apart: %d %d", a, b)
	}
}

func TestRunShrinksWhenArenaTight(t *testing.T) {
	// Capacity only fits 4 blocks of class 6 (64 words): grow must
	// shrink its run request instead of failing.
	m := reset(256, 64)
	for i := 0; i < 4; i++ {
		if _, err := m.Allocate(heap.ObjectID(i), 64, nil); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := m.Allocate(9, 64, nil); err != heap.ErrNoFit {
		t.Fatalf("expected ErrNoFit, got %v", err)
	}
}

func TestOversizedRequestRejected(t *testing.T) {
	m := reset(1<<12, 64)
	if _, err := m.Allocate(1, 128, nil); err == nil {
		t.Fatal("request beyond class table accepted")
	}
}
