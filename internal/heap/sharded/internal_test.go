package sharded

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"compaction/internal/heap"
	"compaction/internal/mm/fits"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// The tests in this file read the Manager's sub-managers (m.subs)
// directly, so the package API needs no accessor for them.

// errSlotsFull is slotMgr's refusal, made once so that a full shard
// costs the stub no allocation.
var errSlotsFull = errors.New("slotMgr: shard full")

// slotMgr is a minimal allocation-free sub-manager for fixed-size
// slots within its shard (freed addresses are handed back LIFO),
// mirroring the stub the engine's own allocation pin uses: with it,
// any allocation the harness measures belongs to the Manager.
type slotMgr struct {
	slot     word.Size
	capacity word.Size
	free     []word.Addr
	next     word.Addr
}

func (m *slotMgr) Name() string { return "slot" }

func (m *slotMgr) Reset(cfg sim.Config) {
	m.capacity = cfg.Capacity
	m.free = m.free[:0]
	m.next = 0
}

func (m *slotMgr) Allocate(_ heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	if size != m.slot {
		return 0, fmt.Errorf("slotMgr: size %d, want %d", size, m.slot)
	}
	if n := len(m.free); n > 0 {
		a := m.free[n-1]
		m.free = m.free[:n-1]
		return a, nil
	}
	if m.next+size > m.capacity {
		return 0, errSlotsFull
	}
	a := m.next
	m.next += size
	return a, nil
}

func (m *slotMgr) Free(_ heap.ObjectID, s heap.Span) {
	m.free = append(m.free, s.Addr)
}

// StartRound makes the stub a sim.RoundCompactor, so a round start
// goes through the Manager's per-shard mover hand-off.
func (m *slotMgr) StartRound(mv sim.Mover) { _ = mv.Remaining() }

// nopMover stands in for the engine: it moves nothing and grants no
// compaction budget.
type nopMover struct{}

func (nopMover) Move(heap.ObjectID, word.Addr) (bool, error) { return false, nil }
func (nopMover) Remaining() word.Size                        { return 0 }
func (nopMover) Lookup(heap.ObjectID) (heap.Span, bool)      { return heap.Span{}, false }

// TestShardedAllocFree is the run-time half of sharded.go's
// //compactlint:noalloc annotations: after warm-up, one
// Allocate/Free/StartRound cycle through a two-shard Manager performs
// zero heap allocations, including an allocation whose home shard is
// full and which falls back to the other shard. It runs once with
// slotMgr sub-managers, so any allocation measured is the Manager's
// own, and once with first-fit.
func TestShardedAllocFree(t *testing.T) {
	const slot = word.Size(16)
	// Two shards of two slots each. Objects 1 and 3 fill their home
	// shard (id%2 == 1), so object 5 must fall back to shard 0.
	cfg := sim.Config{M: 4 * slot, N: slot, C: 16, Capacity: 4 * slot, Shards: 2}
	ids := []heap.ObjectID{1, 3, 5}
	modes := []struct {
		name    string
		factory func() sim.Manager
	}{
		{"stub-sub", func() sim.Manager { return &slotMgr{slot: slot} }},
		{"first-fit", func() sim.Manager { return fits.New(fits.FirstFit) }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			m := New("sharded-"+mode.name, mode.factory)
			m.Reset(cfg)
			var mv sim.Mover = nopMover{}
			spans := make([]heap.Span, len(ids))
			cycle := func() {
				for k, id := range ids {
					addr, err := m.Allocate(id, slot, mv)
					if err != nil {
						t.Fatal(err)
					}
					spans[k] = heap.Span{Addr: addr, Size: slot}
				}
				for k, id := range ids {
					m.Free(id, spans[k])
				}
				m.StartRound(mv)
			}
			cycle() // warm up the sub-managers' free lists and tables
			if spans[2].Addr >= m.shardCap {
				t.Fatalf("object 5 placed at %v in its full home shard; fallback did not fire", spans[2])
			}
			if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
				t.Errorf("a warm %d-object cycle allocates %.2f times, want 0", len(ids), avg)
			}
		})
	}
}

// churn drives a Manager of first-fit sub-managers through a seeded
// mix of count allocations and frees, called as the engine calls it,
// and returns the Manager and its live objects (global spans).
func churn(t *testing.T, shards int, seed int64, count int) (*Manager, []heap.Object) {
	t.Helper()
	cfg := sim.Config{M: 1 << 12, N: 1 << 6, C: 16, Capacity: 1 << 14, Shards: shards}
	m := New("sharded-first-fit", func() sim.Manager { return fits.New(fits.FirstFit) })
	m.Reset(cfg)
	rng := rand.New(rand.NewSource(seed))
	var live []heap.Object
	var words word.Size
	var next heap.ObjectID
	for i := 0; i < count; i++ {
		if len(live) > 0 && (rng.Intn(3) == 0 || words > cfg.M*3/4) {
			k := rng.Intn(len(live))
			o := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			m.Free(o.ID, o.Span)
			words -= o.Span.Size
			continue
		}
		next++
		size := word.Pow2(rng.Intn(word.Log2(cfg.N) + 1))
		addr, err := m.Allocate(next, size, nopMover{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		live = append(live, heap.Object{ID: next, Span: heap.Span{Addr: addr, Size: size}})
		words += size
	}
	return m, live
}

// TestNoFreeIntervalSpansShardBoundary: after a churn, every shard's
// free-space index is well formed and every free interval lies inside
// the shard's own range [0, shardCap) — the structural guarantee that
// sharding never merges free space across a boundary.
func TestNoFreeIntervalSpansShardBoundary(t *testing.T) {
	for _, shards := range []int{4, 8} {
		m, _ := churn(t, shards, 7, 4000)
		for i, sub := range m.subs {
			fs := sub.(*fits.Manager).FS
			if err := fs.Validate(); err != nil {
				t.Fatalf("shards=%d: shard %d free-space index: %v", shards, i, err)
			}
			fs.Gaps(func(g heap.Span) bool {
				if g.Addr < 0 || g.End() > m.shardCap {
					t.Errorf("shards=%d: shard %d free interval %v crosses [0, %d)", shards, i, g, m.shardCap)
				}
				return true
			})
		}
	}
}

// TestShardCensusSums: after a churn, each shard's free words and the
// words of the live objects placed in it account for exactly the
// shard's capacity, and the shards together for the heap's.
func TestShardCensusSums(t *testing.T) {
	for _, shards := range []int{4, 8} {
		m, live := churn(t, shards, 99, 4000)
		held := make([]word.Size, shards)
		var words word.Size
		for _, o := range live {
			held[o.Span.Addr/m.shardCap] += o.Span.Size
			words += o.Span.Size
		}
		var free word.Size
		for i, sub := range m.subs {
			f := sub.(*fits.Manager).FS.FreeWords()
			free += f
			if got := m.shardCap - f; got != held[i] {
				t.Errorf("shards=%d: shard %d has %d words in use, its live objects hold %d",
					shards, i, got, held[i])
			}
		}
		if free+words != m.cfg.Capacity {
			t.Errorf("shards=%d: free %d + live %d != capacity %d", shards, free, words, m.cfg.Capacity)
		}
	}
}
