package heap

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// spanTableAgrees checks t against the model: entries, length, walk
// order (dense IDs ascending, then overflow IDs ascending), and the
// page bookkeeping that makes the table follow the live set — a page
// is held exactly while it has entries, its count is right, emptied
// pages sit absent in the pool, and no page was made while the pool
// had one (so the pages made are the most ever live at once).
func spanTableAgrees(tab *SpanTable, model map[ObjectID]Span, peak int) bool {
	if tab.Len() != len(model) {
		return false
	}
	for id, s := range model {
		if got, ok := tab.Get(id); !ok || got != s {
			return false
		}
	}
	var want []ObjectID
	for id := range model {
		want = append(want, id)
	}
	slices.SortFunc(want, func(a, b ObjectID) int {
		if tab.dense(a) != tab.dense(b) {
			if tab.dense(a) {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	var got []ObjectID
	tab.Each(func(id ObjectID, s Span) bool {
		got = append(got, id)
		return model[id] == s
	})
	if !slices.Equal(got, want) {
		return false
	}
	inUse := 0
	for p, pg := range tab.pages {
		n := int32(0)
		if pg != nil {
			for _, s := range pg {
				if s.Size != 0 {
					n++
				}
			}
			if n == 0 || p < tab.first {
				return false
			}
			inUse++
		}
		if n != tab.live[p] {
			return false
		}
	}
	for _, pg := range tab.pool {
		if *pg != (spanPage{}) {
			return false
		}
	}
	return inUse+len(tab.pool) == peak && tab.Slots() == inUse*spanPageSize+len(tab.overflow)
}

// TestSpanTableAgainstMap drives SpanTable and a map through the same
// random sets, overwrites, deletes, early-stopped walks and resets,
// with IDs that cross page boundaries, sit far apart, run negative or
// pass the dense range, and requires them to agree after every
// operation (spanTableAgrees).
func TestSpanTableAgainstMap(t *testing.T) {
	ids := func(rng *rand.Rand) ObjectID {
		switch k := rng.Intn(20); {
		case k < 8: // a few IDs on each of a few pages, which empty often
			return ObjectID(rng.Intn(6))*spanPageSize + ObjectID(rng.Intn(4))
		case k < 14: // a few neighbouring pages
			return ObjectID(rng.Intn(4 * spanPageSize))
		case k < 16: // far away
			return ObjectID(100*spanPageSize + rng.Intn(spanPageSize))
		case k < 18:
			return -1 - ObjectID(rng.Intn(8))
		default:
			return spanDenseLimit + ObjectID(rng.Intn(8))
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tab SpanTable
		model := map[ObjectID]Span{}
		peak := 0
		for i := 0; i < 3000; i++ {
			switch k := rng.Intn(100); {
			case k < 45:
				id, s := ids(rng), Span{Addr: rng.Int63n(1 << 20), Size: 1 + rng.Int63n(64)}
				tab.Set(id, s)
				model[id] = s
			case k < 97:
				id := ids(rng)
				want, had := model[id]
				if got, ok := tab.Delete(id); ok != had || got != want {
					return false
				}
				delete(model, id)
			case k < 99: // a walk that stops at its first entry
				n := 0
				tab.Each(func(ObjectID, Span) bool { n++; return false })
				if n != min(1, len(model)) {
					return false
				}
			default:
				tab.Reset()
				clear(model)
			}
			inUse := 0
			for _, pg := range tab.pages {
				if pg != nil {
					inUse++
				}
			}
			peak = max(peak, inUse)
			if i%97 == 0 && !spanTableAgrees(&tab, model, peak) {
				return false
			}
		}
		return spanTableAgrees(&tab, model, peak)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSpanTableFollowsLiveWindow slides a window of live IDs far past
// the first page, as the engine's sequential IDs do: the table must
// hold only the pages the window covers, reuse them from its pool,
// and walk only them.
func TestSpanTableFollowsLiveWindow(t *testing.T) {
	const window = 3 * spanPageSize / 2
	var tab SpanTable
	made := map[*spanPage]bool{}
	for id := ObjectID(0); id < 64*spanPageSize; id++ {
		tab.Set(id, Span{Addr: int64(id), Size: 1})
		made[tab.pages[id>>spanPageBits]] = true
		if id >= window {
			if _, ok := tab.Delete(id - window); !ok {
				t.Fatalf("delete of %d failed", id-window)
			}
		}
	}
	if tab.Len() != window {
		t.Fatalf("Len = %d, want %d", tab.Len(), window)
	}
	if slots := tab.Slots(); slots > 3*spanPageSize {
		t.Fatalf("a window of %d IDs spans %d slots, want at most 3 pages (%d)", window, slots, 3*spanPageSize)
	}
	if len(made) > 3 {
		t.Fatalf("%d pages made for a window that never covers more than 3", len(made))
	}
	if tab.first != 64-2 {
		t.Fatalf("first page %d, want %d", tab.first, 64-2)
	}
	tab.Reset()
	if tab.Len() != 0 || tab.Slots() != 0 || len(tab.pool) > 3 {
		t.Fatalf("after Reset: Len %d, Slots %d, %d pooled pages", tab.Len(), tab.Slots(), len(tab.pool))
	}
}
