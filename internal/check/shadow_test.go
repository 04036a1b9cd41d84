package check

import (
	"math"
	"math/rand"
	"testing"

	"compaction/internal/heap"
)

// TestShadowTableTakesAnyID drives the referee's span table and a map
// through the same random puts and deletes, with IDs from every part
// of the ObjectID range — negative, dense, sparse (a shard index in
// the low byte), and past the dense range — and empty spans, and
// requires them to agree on every lookup and the count.
func TestShadowTableTakesAnyID(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := []heap.ObjectID{math.MinInt64, -1 << 40, -5, -1, 0, 1, 2, 4095, 4096, 70000,
		shadowDenseIDs - 1, shadowDenseIDs, 1 << 40, math.MaxInt64}
	for s := heap.ObjectID(0); s < 6; s++ {
		ids = append(ids, 1000<<8|s, 123456<<8|s)
	}
	var tab shadowTable
	model := map[heap.ObjectID]heap.Span{}
	for i := 0; i < 20000; i++ {
		id := ids[rng.Intn(len(ids))]
		want, had := model[id]
		switch got, ok := tab.get(id); {
		case ok != had || got != want:
			t.Fatalf("op %d: get(%d) = %v, %t; want %v, %t", i, id, got, ok, want, had)
		case had:
			if got, ok := tab.del(id); !ok || got != want {
				t.Fatalf("op %d: del(%d) = %v, %t; want %v", i, id, got, ok, want)
			}
			delete(model, id)
		default:
			s := heap.Span{Addr: rng.Int63n(1 << 20), Size: rng.Int63n(4)} // Size 0 included
			tab.put(id, s)
			model[id] = s
		}
		if tab.n != len(model) {
			t.Fatalf("op %d: %d entries, model has %d", i, tab.n, len(model))
		}
	}
	for _, id := range ids {
		want, had := model[id]
		if got, ok := tab.get(id); ok != had || got != want {
			t.Fatalf("at the end: get(%d) = %v, %t; want %v, %t", id, got, ok, want, had)
		}
	}
	if _, ok := tab.del(12345); ok {
		t.Fatal("del of an absent ID succeeded")
	}
}

// TestShadowTableDropsEmptyPages slides a window of live IDs far past
// the first page, as the engine's sequential IDs do: the table must
// hold only the pages the window covers, plus its one spare.
func TestShadowTableDropsEmptyPages(t *testing.T) {
	const window = shadowPageSize + shadowPageSize/2
	var tab shadowTable
	for id := heap.ObjectID(0); id < 32*shadowPageSize; id++ {
		tab.put(id, heap.Span{Addr: int64(id), Size: 1})
		if id >= window {
			if _, ok := tab.del(id - window); !ok {
				t.Fatalf("del of %d failed", id-window)
			}
		}
	}
	held := 0
	for _, pg := range tab.pages {
		if pg != nil {
			held++
		}
	}
	if held > 2 || tab.spare == nil {
		t.Fatalf("a window of %d IDs holds %d pages (spare %t), want at most 2 and a spare", window, held, tab.spare != nil)
	}
	if tab.n != window {
		t.Fatalf("count %d, want %d", tab.n, window)
	}
	for id := heap.ObjectID(32*shadowPageSize - window); id < 32*shadowPageSize; id++ {
		if s, ok := tab.get(id); !ok || s != (heap.Span{Addr: int64(id), Size: 1}) {
			t.Fatalf("get(%d) = %v, %t; want the span put", id, s, ok)
		}
	}
}
