package buddy

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

func TestSplitToExactOrder(t *testing.T) {
	m := reset(256)
	a, err := m.Allocate(1, 16, nil)
	if err != nil || a != 0 {
		t.Fatalf("alloc at %d (%v)", a, err)
	}
	// The split must have left buddies of 16, 32, 64, 128 free.
	fb := m.FreeBlocks()
	for _, order := range []int{4, 5, 6, 7} {
		if fb[order] != 1 {
			t.Fatalf("after split, free blocks = %v, want one each at orders 4..7", fb)
		}
	}
}

func TestAlignedPlacement(t *testing.T) {
	m := reset(1 << 10)
	sizes := []word.Size{1, 2, 4, 8, 16, 32, 64}
	for i, s := range sizes {
		a, err := m.Allocate(heap.ObjectID(i), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !word.IsAligned(a, word.RoundUpPow2(s)) {
			t.Errorf("size %d placed at %d: not size-aligned", s, a)
		}
	}
}

func TestCoalesceCascades(t *testing.T) {
	m := reset(64)
	var spans []heap.Span
	for i := 0; i < 4; i++ {
		a, err := m.Allocate(heap.ObjectID(i), 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, heap.Span{Addr: a, Size: 16})
	}
	for i := 0; i < 4; i++ {
		m.Free(heap.ObjectID(i), spans[i])
	}
	fb := m.FreeBlocks()
	if len(fb) != 1 || fb[6] != 1 {
		t.Fatalf("after freeing all, free blocks = %v, want one order-6 block", fb)
	}
}

func TestBuddyOfHigherAddressCoalesces(t *testing.T) {
	m := reset(64)
	a0, _ := m.Allocate(0, 32, nil)
	a1, _ := m.Allocate(1, 32, nil)
	// Free the higher buddy first, then the lower: must still merge.
	m.Free(1, heap.Span{Addr: a1, Size: 32})
	m.Free(0, heap.Span{Addr: a0, Size: 32})
	if fb := m.FreeBlocks(); fb[6] != 1 {
		t.Fatalf("buddies did not coalesce: %v", fb)
	}
}

func TestRoundUpInternalFragmentation(t *testing.T) {
	m := reset(64)
	// A 5-word object consumes an 8-block; 7 more 8-blocks remain.
	if _, err := m.Allocate(1, 5, nil); err != nil {
		t.Fatal(err)
	}
	count := 0
	for i := 2; ; i++ {
		if _, err := m.Allocate(heap.ObjectID(i), 8, nil); err != nil {
			break
		}
		count++
	}
	if count != 7 {
		t.Fatalf("fit %d more 8-blocks, want 7", count)
	}
}

func TestRequestBeyondCapacity(t *testing.T) {
	m := reset(64)
	if _, err := m.Allocate(1, 128, nil); err == nil {
		t.Fatal("oversized request accepted")
	}
}

func TestLazyStackStaleEntries(t *testing.T) {
	// Stress the lazy-deletion free lists: repeated alloc/free cycles
	// that force merges must never hand out overlapping blocks, and
	// must not grow a stack past twice the most blocks its order has
	// held free: stale entries are bounded by the free set, not by the
	// run's history.
	m := reset(512)
	used := make([]bool, 512)
	rng := rand.New(rand.NewSource(23))
	type rec struct {
		id heap.ObjectID
		s  heap.Span
	}
	var live []rec
	next := heap.ObjectID(1)
	peak := make([]int, len(m.count))
	for step := 0; step < 8000; step++ {
		for o := range m.count {
			peak[o] = max(peak[o], m.count[o])
			if len(m.stacks[o]) > 2*peak[o] {
				t.Fatalf("step %d: order %d stack holds %d entries, its set at most %d blocks",
					step, o, len(m.stacks[o]), peak[o])
			}
		}
		if rng.Intn(2) == 0 || len(live) == 0 {
			size := word.Size(1 + rng.Intn(32))
			addr, err := m.Allocate(next, size, nil)
			if err != nil {
				continue
			}
			blockSize := word.RoundUpPow2(size)
			for a := addr; a < addr+blockSize; a++ {
				if used[a] {
					t.Fatalf("step %d: overlapping block at %d", step, a)
				}
				used[a] = true
			}
			live = append(live, rec{next, heap.Span{Addr: addr, Size: size}})
			next++
		} else {
			i := rng.Intn(len(live))
			r := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			m.Free(r.id, r.s)
			blockSize := word.RoundUpPow2(r.s.Size)
			for a := r.s.Addr; a < r.s.Addr+blockSize; a++ {
				used[a] = false
			}
		}
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
