package check

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"compaction/internal/heap"
)

// TestShadowTableTakesAnyID drives the referee's span table and a map
// through the same random puts and deletes, with IDs from every part
// of the ObjectID range — negative, dense, sparse (a shard index in
// the low byte), and past the dense range — and empty spans, and
// requires them to agree on every lookup, the count and the contents.
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
	var want []heap.Span
	for _, s := range model {
		want = append(want, s)
	}
	got := tab.appendSpans(nil)
	byAddr := func(a, b heap.Span) int {
		if a.Addr != b.Addr {
			return int(a.Addr - b.Addr)
		}
		return int(a.Size - b.Size)
	}
	slices.SortFunc(got, byAddr)
	slices.SortFunc(want, byAddr)
	if !slices.Equal(got, want) {
		t.Fatalf("appendSpans = %v, want %v", got, want)
	}
	if _, ok := tab.del(12345); ok {
		t.Fatal("del of an absent ID succeeded")
	}
}
