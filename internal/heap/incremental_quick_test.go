package heap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"compaction/internal/word"
)

// The statistics Occupancy and FreeSpace maintain incrementally
// (live/max-live/high-water counters, the largest free interval
// behind mayFit) exist so the hot path never recomputes them.
// These properties pin the other half of that contract: after an
// arbitrary operation sequence the incremental values must equal a
// from-scratch recomputation over the current state.

// recomputeOccupancy walks the span table and rebuilds the aggregate
// statistics that Occupancy claims to maintain incrementally.
func recomputeOccupancy(o *Occupancy) (live word.Size, objects int, extent word.Addr) {
	o.tab.Each(func(id ObjectID, s Span) bool {
		live += s.Size
		objects++
		if s.End() > extent {
			extent = s.End()
		}
		return true
	})
	return live, objects, extent
}

// Property: Occupancy's incremental live/max-live/high-water/total
// accounting matches a from-scratch recomputation after any sequence
// of Place/Move/Remove, including across Reset (which must also keep
// its retained pages from leaking state).
func TestOccupancyIncrementalMatchesRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := NewOccupancy()
		// History-dependent statistics need a shadow that is updated
		// from the recomputed (not the incremental) live value.
		var shadowMaxLive, shadowTotal word.Size
		var shadowHigh word.Addr
		var ids []ObjectID
		nextID := ObjectID(1)
		for i := 0; i < 500; i++ {
			switch rng.Intn(8) {
			case 0, 1, 2, 3:
				s := Span{Addr: int64(rng.Intn(2000)), Size: int64(1 + rng.Intn(32))}
				if o.Place(nextID, s) == nil {
					ids = append(ids, nextID)
					nextID++
					shadowTotal += s.Size
					if s.End() > shadowHigh {
						shadowHigh = s.End()
					}
				}
			case 4, 5:
				if len(ids) > 0 {
					j := rng.Intn(len(ids))
					if _, err := o.Move(ids[j], int64(rng.Intn(2000))); err == nil {
						if s, ok := o.Lookup(ids[j]); ok && s.End() > shadowHigh {
							shadowHigh = s.End()
						}
					}
				}
			case 6:
				if len(ids) > 0 {
					j := rng.Intn(len(ids))
					if _, err := o.Remove(ids[j]); err == nil {
						ids[j] = ids[len(ids)-1]
						ids = ids[:len(ids)-1]
					}
				}
			case 7:
				if rng.Intn(20) == 0 {
					o.Reset()
					ids = ids[:0]
					shadowMaxLive, shadowTotal, shadowHigh = 0, 0, 0
				}
			}
			live, objects, extent := recomputeOccupancy(o)
			if live > shadowMaxLive {
				shadowMaxLive = live
			}
			if o.Live() != live || o.Objects() != objects {
				return false
			}
			if o.MaxLive() != shadowMaxLive || o.TotalAllocated() != shadowTotal {
				return false
			}
			if o.HighWater() != shadowHigh || o.HighWater() < extent {
				return false
			}
			if o.Extent() != extent {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the O(1) mayFit fast path answers exactly whether a gap of
// the requested size exists, judged against the largest gap of the
// interval walk. A false negative would silently change placement
// behaviour, which the differential oracle treats as a manager
// divergence.
func TestFreeSpaceMayFitMatchesLargestGap(t *testing.T) {
	f := func(seed int64) bool {
		const capacity = 1 << 11
		rng := rand.New(rand.NewSource(seed))
		fs := NewFreeSpace(capacity)
		var live []Span
		for i := 0; i < 400; i++ {
			if rng.Intn(3) != 0 || len(live) == 0 {
				size := word.Size(1 + rng.Intn(48))
				if a, err := fs.AllocFirstFit(size); err == nil {
					live = append(live, Span{a, size})
				}
			} else {
				j := rng.Intn(len(live))
				s := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				if fs.Release(s) != nil {
					return false
				}
			}

			var largest word.Size
			fs.Gaps(func(g Span) bool {
				largest = max(largest, g.Size)
				return true
			})
			for size := word.Size(0); size <= largest+1; size++ {
				if fs.mayFit(size) != (size > 0 && size <= largest) {
					return false
				}
			}
		}
		return fs.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: FreeSpace and the brute-force refModel agree through a
// random sequence of every operation — first-, best-, worst-, next-
// and aligned-fit placements, releases of live and of arbitrary spans,
// and reservations — on every placement and error, on the aggregate
// views and the gap walk, and Validate passes after each step. It is
// FuzzFreeIndex's comparison with testing/quick choosing the inputs.
func TestFreeSpaceBackendsAgree(t *testing.T) {
	var why error
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newModelRun(1 << 10)
		for i := 0; i < 300; i++ {
			if why = r.step(byte(rng.Intn(8)), byte(rng.Intn(256))); why != nil {
				return false
			}
			if why = r.compare(); why != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Errorf("%v: %v", err, why)
	}
}
