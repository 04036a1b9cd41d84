package heap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"compaction/internal/word"
)

// Property: after any sequence of first-fit allocations and releases,
// the free-word count plus the allocated-word count equals capacity,
// and the interval count matches the number of maximal runs.
func TestFreeSpaceConservation(t *testing.T) {
	f := func(seed int64) bool {
		const capacity = 300
		rng := rand.New(rand.NewSource(seed))
		fs := NewFreeSpace(capacity)
		var allocated []Span
		var allocWords word.Size
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 || len(allocated) == 0 {
				size := word.Size(1 + rng.Intn(20))
				a, err := fs.AllocFirstFit(size)
				if err != nil {
					continue
				}
				allocated = append(allocated, Span{a, size})
				allocWords += size
			} else {
				j := rng.Intn(len(allocated))
				s := allocated[j]
				allocated[j] = allocated[len(allocated)-1]
				allocated = allocated[:len(allocated)-1]
				if err := fs.Release(s); err != nil {
					return false
				}
				allocWords -= s.Size
			}
			if fs.FreeWords()+allocWords != capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: PeekBestFit and AllocBestFit agree, and Peek does not
// mutate the structure.
func TestPeekMatchesAlloc(t *testing.T) {
	f := func(seed int64) bool {
		const capacity = 200
		rng := rand.New(rand.NewSource(seed))
		fs := NewFreeSpace(capacity)
		// Fragment the space.
		var spans []Span
		for {
			a, err := fs.AllocFirstFit(word.Size(1 + rng.Intn(16)))
			if err != nil {
				break
			}
			spans = append(spans, Span{a, 0})
		}
		for _, s := range spans {
			_ = s
		}
		// Free random spans to create holes.
		fs2 := NewFreeSpace(capacity)
		var live []Span
		for i := 0; i < 100; i++ {
			size := word.Size(1 + rng.Intn(16))
			if a, err := fs2.AllocFirstFit(size); err == nil {
				live = append(live, Span{a, size})
			}
		}
		for i := 0; i < len(live); i += 2 {
			if err := fs2.Release(live[i]); err != nil {
				return false
			}
		}
		for size := word.Size(1); size <= 32; size++ {
			peek, ok := fs2.PeekBestFit(size)
			freeBefore := fs2.FreeWords()
			if fs2.FreeWords() != freeBefore {
				return false
			}
			got, err := fs2.AllocBestFit(size)
			if ok != (err == nil) {
				return false
			}
			if err == nil {
				if got != peek.Addr {
					return false
				}
				if err := fs2.Release(Span{got, size}); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: aligned allocation always returns aligned, in-bounds,
// previously-free placements.
func TestAlignedAllocationProperty(t *testing.T) {
	f := func(seed int64) bool {
		const capacity = 1 << 10
		rng := rand.New(rand.NewSource(seed))
		fs := NewFreeSpace(capacity)
		for i := 0; i < 200; i++ {
			exp := rng.Intn(6)
			size := word.Pow2(exp)
			a, err := fs.AllocAlignedFirstFit(size, size)
			if err != nil {
				return true // full: fine
			}
			if !word.IsAligned(a, size) || a+size > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Occupancy.Move never changes Live(), and HighWater is
// monotone under all operations.
func TestOccupancyMoveInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := NewOccupancy()
		var hw word.Addr
		ids := []ObjectID{}
		for i := 0; i < 400; i++ {
			switch rng.Intn(3) {
			case 0:
				id := ObjectID(i + 1)
				s := Span{int64(rng.Intn(1000)), int64(1 + rng.Intn(16))}
				if o.Place(id, s) == nil {
					ids = append(ids, id)
				}
			case 1:
				if len(ids) > 0 {
					j := rng.Intn(len(ids))
					liveBefore := o.Live()
					if _, err := o.Move(ids[j], int64(rng.Intn(1000))); err == nil {
						if o.Live() != liveBefore {
							return false
						}
					}
				}
			case 2:
				if len(ids) > 0 {
					j := rng.Intn(len(ids))
					if _, err := o.Remove(ids[j]); err == nil {
						ids = append(ids[:j], ids[j+1:]...)
					}
				}
			}
			if o.HighWater() < hw {
				return false
			}
			hw = o.HighWater()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the address-ordered free tree stays consistent under bulk
// loads in any order: firstFit always returns the lowest-addressed
// fitting gap. 1,200 gaps take the tree to three levels.
func TestFreeTreeFirstFitIsLowest(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		var tr freeTree
		tr.init(false)
		var spans []Span
		addr := int64(0)
		for i := 0; i < 1200; i++ {
			size := int64(1 + rng.Intn(30))
			gap := int64(1 + rng.Intn(10))
			spans = append(spans, Span{addr, size})
			addr += size + gap
		}
		for _, i := range rng.Perm(len(spans)) {
			tr.insert(spans[i])
		}
		if err := tr.check(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for size := int64(1); size <= 31; size++ {
			got, ok := tr.firstFit(size)
			var want Span
			found := false
			for _, s := range spans {
				if s.Size >= size {
					want, found = s, true
					break
				}
			}
			if ok != found {
				t.Fatalf("trial %d size %d: ok=%v found=%v", trial, size, ok, found)
			}
			if ok && got != want {
				t.Fatalf("trial %d size %d: got %v want %v", trial, size, got, want)
			}
		}
	}
}

// Property: Validate passes after every operation of a random
// alloc/release sequence across all placement policies.
func TestValidateAfterEveryOp(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fs := NewFreeSpace(400)
	var live []Span
	cursor := int64(0)
	for step := 0; step < 3000; step++ {
		switch rng.Intn(6) {
		case 0, 1:
			size := word.Size(1 + rng.Intn(24))
			if a, err := fs.AllocFirstFit(size); err == nil {
				live = append(live, Span{a, size})
			}
		case 2:
			size := word.Size(1 + rng.Intn(24))
			if a, err := fs.AllocBestFit(size); err == nil {
				live = append(live, Span{a, size})
			}
		case 3:
			size := word.Size(1 + rng.Intn(24))
			if a, err := fs.AllocNextFit(size, cursor); err == nil {
				live = append(live, Span{a, size})
				cursor = a + size
			}
		case 4:
			size := word.Pow2(rng.Intn(5))
			if a, err := fs.AllocAlignedFirstFit(size, size); err == nil {
				live = append(live, Span{a, size})
			}
		default:
			if len(live) > 0 {
				j := rng.Intn(len(live))
				s := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := fs.Release(s); err != nil {
					t.Fatalf("step %d: release %v: %v", step, s, err)
				}
			}
		}
		if err := fs.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
