package heap

import (
	"math/rand"
	"testing"
)

func TestOccupancyPlaceRemove(t *testing.T) {
	o := NewOccupancy()
	if err := o.Place(1, Span{0, 10}); err != nil {
		t.Fatal(err)
	}
	if err := o.Place(2, Span{10, 5}); err != nil {
		t.Fatal(err)
	}
	if o.Live() != 15 || o.Objects() != 2 || o.HighWater() != 15 {
		t.Fatalf("state: live=%d objs=%d hw=%d", o.Live(), o.Objects(), o.HighWater())
	}
	if err := o.Place(3, Span{9, 3}); err == nil {
		t.Fatalf("overlapping place succeeded")
	}
	if err := o.Place(1, Span{100, 1}); err == nil {
		t.Fatalf("duplicate id place succeeded")
	}
	s, err := o.Remove(1)
	if err != nil || s != (Span{0, 10}) {
		t.Fatalf("remove: %v %v", s, err)
	}
	if o.Live() != 5 || o.HighWater() != 15 {
		t.Fatalf("after remove: live=%d hw=%d (high water must not shrink)", o.Live(), o.HighWater())
	}
	if _, err := o.Remove(1); err == nil {
		t.Fatalf("double remove succeeded")
	}
	// Freed space is reusable.
	if err := o.Place(4, Span{0, 10}); err != nil {
		t.Fatalf("reuse of freed space failed: %v", err)
	}
}

func TestOccupancyMove(t *testing.T) {
	o := NewOccupancy()
	if err := o.Place(1, Span{0, 10}); err != nil {
		t.Fatal(err)
	}
	if err := o.Place(2, Span{20, 10}); err != nil {
		t.Fatal(err)
	}
	old, err := o.Move(1, 40)
	if err != nil || old != (Span{0, 10}) {
		t.Fatalf("move: %v %v", old, err)
	}
	if s, _ := o.Lookup(1); s != (Span{40, 10}) {
		t.Fatalf("lookup after move: %v", s)
	}
	if o.HighWater() != 50 {
		t.Fatalf("high water after move = %d, want 50", o.HighWater())
	}
	// Moving onto another object must fail and leave state intact.
	if _, err := o.Move(1, 25); err == nil {
		t.Fatalf("overlapping move succeeded")
	}
	if s, _ := o.Lookup(1); s != (Span{40, 10}) {
		t.Fatalf("failed move corrupted state: %v", s)
	}
	// An overlapping slide of the object over itself is allowed.
	if _, err := o.Move(1, 35); err != nil {
		t.Fatalf("overlapping self-slide failed: %v", err)
	}
	if _, err := o.Move(99, 0); err == nil {
		t.Fatalf("move of dead object succeeded")
	}
}

func TestOccupancyExtentVsHighWater(t *testing.T) {
	o := NewOccupancy()
	if err := o.Place(1, Span{100, 10}); err != nil {
		t.Fatal(err)
	}
	if o.Extent() != 110 || o.HighWater() != 110 {
		t.Fatalf("extent=%d hw=%d", o.Extent(), o.HighWater())
	}
	if _, err := o.Remove(1); err != nil {
		t.Fatal(err)
	}
	if o.Extent() != 0 {
		t.Fatalf("extent after clearing = %d, want 0", o.Extent())
	}
	if o.HighWater() != 110 {
		t.Fatalf("high water shrank to %d", o.HighWater())
	}
}

func TestOccupancyMaxLiveAndTotal(t *testing.T) {
	o := NewOccupancy()
	for i := ObjectID(0); i < 4; i++ {
		if err := o.Place(i, Span{int64(i) * 10, 10}); err != nil {
			t.Fatal(err)
		}
	}
	for i := ObjectID(0); i < 4; i++ {
		if _, err := o.Remove(i); err != nil {
			t.Fatal(err)
		}
	}
	if o.MaxLive() != 40 || o.TotalAllocated() != 40 || o.Live() != 0 {
		t.Fatalf("maxLive=%d total=%d live=%d", o.MaxLive(), o.TotalAllocated(), o.Live())
	}
	// Re-place one more: total keeps growing, maxLive does not.
	if err := o.Place(9, Span{0, 5}); err != nil {
		t.Fatal(err)
	}
	if o.MaxLive() != 40 || o.TotalAllocated() != 45 {
		t.Fatalf("maxLive=%d total=%d", o.MaxLive(), o.TotalAllocated())
	}
}

// Property: under random place/remove/move, Occupancy never accepts an
// overlap (cross-checked against a brute-force bitmap).
func TestOccupancyAgainstReferenceModel(t *testing.T) {
	const capacity = 256
	rng := rand.New(rand.NewSource(3))
	o := NewOccupancy()
	used := make([]bool, capacity)
	spans := make(map[ObjectID]Span)
	next := ObjectID(1)
	overlapFree := func(s Span, skip ObjectID) bool {
		for a := s.Addr; a < s.End(); a++ {
			if used[a] {
				if sk, ok := spans[skip]; !ok || !sk.ContainsAddr(a) {
					return false
				}
			}
		}
		return true
	}
	mark := func(s Span, v bool) {
		for a := s.Addr; a < s.End(); a++ {
			used[a] = v
		}
	}
	for step := 0; step < 8000; step++ {
		switch rng.Intn(3) {
		case 0: // place at random location
			s := Span{int64(rng.Intn(capacity - 16)), int64(1 + rng.Intn(16))}
			want := overlapFree(s, -1)
			err := o.Place(next, s)
			if want != (err == nil) {
				t.Fatalf("step %d: place %v: model ok=%v err=%v", step, s, want, err)
			}
			if err == nil {
				mark(s, true)
				spans[next] = s
				next++
			}
		case 1: // remove random
			for id, s := range spans {
				if _, err := o.Remove(id); err != nil {
					t.Fatalf("step %d: remove live %d: %v", step, id, err)
				}
				mark(s, false)
				delete(spans, id)
				break
			}
		case 2: // move random
			for id, s := range spans {
				to := int64(rng.Intn(capacity - 16))
				ns := Span{to, s.Size}
				if ns.End() > capacity {
					break
				}
				want := overlapFree(ns, id)
				_, err := o.Move(id, to)
				if want != (err == nil) {
					t.Fatalf("step %d: move %d to %v: model ok=%v err=%v", step, id, ns, want, err)
				}
				if err == nil {
					mark(s, false)
					mark(ns, true)
					spans[id] = ns
				}
				break
			}
		}
		var wantLive int64
		for _, v := range used {
			if v {
				wantLive++
			}
		}
		if o.Live() != wantLive {
			t.Fatalf("step %d: live %d, model %d", step, o.Live(), wantLive)
		}
	}
}
