package mm_test

import (
	"math/rand"
	"runtime"
	"testing"

	"compaction/internal/budget"
	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// keepsScanList names the compactors. Each records every object it
// places in mm.Base.Objs, the list it scans for objects to move, and
// that table's pages are indexed by ID and never given back. Making
// the ID-indexed tables O(live) is ROADMAP item 1, so they are left
// out here until it lands.
var keepsScanList = map[string]bool{
	"bp-compact": true, "improved": true, "mark-compact": true, "threshold": true,
}

// retainedAfter drives a fresh manager through pairs allocate/free
// pairs over a constant live set, with fresh sequential IDs and no
// engine, and returns the post-GC live heap with the manager still
// reachable.
func retainedAfter(t *testing.T, name string, pairs int) uint64 {
	t.Helper()
	mgr, err := mm.New(name)
	if err != nil {
		t.Fatal(err)
	}
	const live = 64
	mgr.Reset(sim.Config{M: 1 << 12, N: 64, C: budget.NoCompaction, Capacity: 1 << 18})
	rng := rand.New(rand.NewSource(1))
	objs := make([]heap.Object, 0, live)
	next := heap.ObjectID(0)
	alloc := func() {
		size := word.Size(1 + rng.Intn(64))
		addr, err := mgr.Allocate(next, size, nil)
		if err != nil {
			t.Fatalf("%s: allocating object %d (%d words): %v", name, next, size, err)
		}
		objs = append(objs, heap.Object{ID: next, Span: heap.Span{Addr: addr, Size: size}})
		next++
	}
	for len(objs) < live {
		alloc()
	}
	for i := 0; i < pairs; i++ {
		j := rng.Intn(len(objs))
		o := objs[j]
		objs[j] = objs[len(objs)-1]
		objs = objs[:len(objs)-1]
		mgr.Free(o.ID, o.Span)
		alloc()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(mgr)
	return ms.HeapAlloc
}

// TestNonMovingManagersKeepNoHistory: a manager that never moves needs
// no record of the objects it placed, since the engine hands Free the
// span, so its memory follows the live set, not the number of
// allocations ever made. Four times the churn must leave the post-GC
// heap within a fixed margin: half of the 512 KiB page a paged ID
// table (heap.SpanTable) adds per 32,768 IDs.
func TestNonMovingManagersKeepNoHistory(t *testing.T) {
	const (
		pairs  = 1 << 15
		margin = 256 << 10
	)
	for _, name := range mm.Names() {
		if keepsScanList[name] {
			continue
		}
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
