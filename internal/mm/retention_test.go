package mm_test

import (
	"math/rand"
	"runtime"
	"testing"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// standIn plays the engine's part in a direct drive: it holds every
// live object's span, approves every move and keeps the span current.
type standIn map[heap.ObjectID]heap.Span

func (m standIn) Move(id heap.ObjectID, to word.Addr) (bool, error) {
	s := m[id]
	s.Addr = to
	m[id] = s
	return false, nil
}
func (m standIn) Remaining() word.Size                      { return 1 << 40 }
func (m standIn) Lookup(id heap.ObjectID) (heap.Span, bool) { s, ok := m[id]; return s, ok }

// retainedAfter drives a fresh manager through pairs allocate/free
// pairs over a constant live set, with fresh sequential IDs and a
// stand-in for the engine, and returns the post-GC live heap with the
// manager still reachable.
func retainedAfter(t *testing.T, name string, pairs int) uint64 {
	t.Helper()
	mgr, err := mm.New(name)
	if err != nil {
		t.Fatal(err)
	}
	const live = 64
	mgr.Reset(sim.Config{M: 1 << 12, N: 64, C: 16, Capacity: 1 << 18})
	rng := rand.New(rand.NewSource(1))
	ids := make([]heap.ObjectID, 0, live)
	spans := standIn{}
	next := heap.ObjectID(0)
	alloc := func() {
		size := word.Size(1 + rng.Intn(64))
		addr, err := mgr.Allocate(next, size, spans)
		if err != nil {
			t.Fatalf("%s: allocating object %d (%d words): %v", name, next, size, err)
		}
		ids = append(ids, next)
		spans[next] = heap.Span{Addr: addr, Size: size}
		next++
	}
	for len(ids) < live {
		alloc()
	}
	for i := 0; i < pairs; i++ {
		j := rng.Intn(len(ids))
		id := ids[j]
		ids[j] = ids[len(ids)-1]
		ids = ids[:len(ids)-1]
		mgr.Free(id, spans[id])
		delete(spans, id)
		alloc()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(mgr)
	return ms.HeapAlloc
}

// TestNonMovingManagersKeepNoHistory drives every manager directly:
// memory must follow the live set, not the number of allocations ever
// made. A non-moving manager needs no record of the objects it placed,
// since the engine hands Free the span; a compactor records each one
// in its scan list (mm.Base.Objs), whose pages are indexed by ID but
// go back to the table's pool once empty. Four times the churn must
// leave the post-GC heap within a fixed margin: 16 of
// heap.SpanTable's 16 KiB pages. TestTablesFollowTheLiveSet (root
// package) checks the same through the engine and the referee.
func TestNonMovingManagersKeepNoHistory(t *testing.T) {
	const (
		pairs  = 1 << 15
		margin = 256 << 10
	)
	for _, name := range mm.Names() {
		t.Run(name, func(t *testing.T) {
			short := retainedAfter(t, name, pairs)
			long := retainedAfter(t, name, 4*pairs)
			t.Logf("%s: post-GC heap %d B after %d pairs, %d B after %d", name, short, pairs, long, 4*pairs)
			if long > short+margin {
				t.Fatalf("%s: post-GC heap grew from %d B to %d B with 4× the allocations (margin %d B)",
					name, short, long, margin)
			}
		})
	}
}
