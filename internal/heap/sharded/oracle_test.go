package sharded_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"compaction/internal/check"
	"compaction/internal/heap"
	"compaction/internal/heap/sharded"
	"compaction/internal/mm/fits"
	"compaction/internal/mm/markcompact"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// replayMgr is the scripted inner manager the referee wraps during
// replay: it returns exactly the address the concurrent run recorded
// for the allocation, and re-issues recorded moves through the
// referee's spy mover at round starts.
type replayMgr struct {
	next    word.Addr
	pending []pendingMove
}

type pendingMove struct {
	id heap.ObjectID
	to word.Addr
}

func (m *replayMgr) Name() string                  { return "replay" }
func (m *replayMgr) Reset(sim.Config)              {}
func (m *replayMgr) Free(heap.ObjectID, heap.Span) {}

func (m *replayMgr) Allocate(_ heap.ObjectID, _ word.Size, _ sim.Mover) (word.Addr, error) {
	return m.next, nil
}

func (m *replayMgr) StartRound(mv sim.Mover) {
	for _, p := range m.pending {
		if _, err := mv.Move(p.id, p.to); err != nil {
			panic(err)
		}
	}
	m.pending = m.pending[:0]
}

// replayMover stands in for the engine during replay: moves always
// succeed (the referee shadows and judges them), and the budget is
// never the limiting factor — the facade's own per-shard ledgers
// already enforced it, which is exactly what the referee re-checks.
type replayMover struct{}

func (replayMover) Move(heap.ObjectID, word.Addr) (bool, error) { return false, nil }
func (replayMover) Remaining() word.Size                        { return math.MaxInt64 }
func (replayMover) Lookup(heap.ObjectID) (heap.Span, bool)      { return heap.Span{}, false }

// linearize merges the per-shard logs into one total order that
// preserves every shard's sequence order. Ops on different shards
// act on disjoint address ranges and commute, so any such merge is a
// linearization of the concurrent history; the merge interleaves by
// sequence number to resemble the real execution.
func linearize(logs [][]sharded.Op) []sharded.Op {
	var out []sharded.Op
	idx := make([]int, len(logs))
	for {
		pick := -1
		var best uint64
		for s, l := range logs {
			if idx[s] < len(l) && (pick < 0 || l[idx[s]].Seq < best) {
				pick, best = s, l[idx[s]].Seq
			}
		}
		if pick < 0 {
			return out
		}
		out = append(out, logs[pick][idx[pick]])
		idx[pick]++
	}
}

// replay drives the linearized trace through the check.Referee and
// fails the test on any shadow-state violation or divergence from the
// facade's own accounting.
func replay(t *testing.T, a *sharded.Allocator, ops []sharded.Op) *check.Referee {
	t.Helper()
	inner := &replayMgr{}
	ref := check.NewReferee(inner)
	ref.Reset(a.Config())
	var mv replayMover
	for _, op := range ops {
		switch op.Kind {
		case sharded.OpAlloc:
			inner.next = op.Addr
			addr, err := ref.Allocate(op.ID, op.Size, mv)
			if err != nil {
				t.Fatalf("replay alloc %+v: %v", op, err)
			}
			if addr != op.Addr {
				t.Fatalf("replay alloc %+v placed at %d", op, addr)
			}
		case sharded.OpFree:
			ref.Free(op.ID, heap.Span{Addr: op.Addr, Size: op.Size})
		case sharded.OpMove:
			inner.pending = append(inner.pending, pendingMove{id: op.ID, to: op.Addr})
			ref.StartRound(mv)
		default:
			t.Fatalf("unknown op kind %d", op.Kind)
		}
	}
	for _, v := range ref.Violations() {
		t.Errorf("referee violation: %s", v)
	}
	if got, want := ref.Live(), a.Live(); got != want {
		t.Errorf("replay live %d, facade %d", got, want)
	}
	if got, want := ref.Objects(), a.Objects(); got != want {
		t.Errorf("replay objects %d, facade %d", got, want)
	}
	if got, want := ref.HighWater(), a.GlobalHighWater(); got != want {
		t.Errorf("replay high water %d, facade %d", got, want)
	}
	return ref
}

// concurrentWorkload hammers the allocator from g goroutines with
// seeded op streams: shard-hinted allocations, frees of both locally
// held and donated handles (a shared exchange moves handles between
// goroutines), and, when compact is set, interleaved compaction
// passes.
func concurrentWorkload(t *testing.T, a *sharded.Allocator, g, opsPer int, compact bool) {
	t.Helper()
	cfg := a.Config()
	// Budget the live bound M across the workers and the exchange
	// pool: workers hold at most half of M between them, the pool at
	// most maxPool handles of at most N words, so the referee's
	// live-bound rule can never fire on a linearization.
	perWorker := cfg.M / 2 / word.Size(g)
	const maxPool = 16
	var exchange struct {
		sync.Mutex
		pool []sharded.Handle
	}
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			var mine []sharded.Handle
			var live word.Size
			for i := 0; i < opsPer; i++ {
				if compact && i%512 == 256 {
					a.Compact()
				}
				switch {
				case len(mine) > 0 && (rng.Intn(3) == 0 || live+cfg.N > perWorker):
					k := rng.Intn(len(mine))
					h := mine[k]
					mine[k] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					live -= h.Span.Size
					if rng.Intn(4) == 0 { // donate instead of freeing, if the pool has room
						exchange.Lock()
						donated := len(exchange.pool) < maxPool
						if donated {
							exchange.pool = append(exchange.pool, h)
						}
						exchange.Unlock()
						if donated {
							continue
						}
					}
					if err := a.Free(h); err != nil {
						t.Error(err)
						return
					}
				case rng.Intn(8) == 0: // free a donated handle
					exchange.Lock()
					var h sharded.Handle
					if n := len(exchange.pool); n > 0 {
						h = exchange.pool[n-1]
						exchange.pool = exchange.pool[:n-1]
					}
					exchange.Unlock()
					if h.ID != 0 {
						if err := a.Free(h); err != nil {
							t.Error(err)
							return
						}
					}
				default:
					size := word.Pow2(rng.Intn(word.Log2(cfg.N) + 1))
					h, err := a.AllocShard(w%a.Shards(), size)
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, h)
					live += size
				}
			}
			// Return the survivors through the exchange so the main
			// goroutine can account for them.
			exchange.Lock()
			exchange.pool = append(exchange.pool, mine...)
			exchange.Unlock()
		}(w)
	}
	wg.Wait()
	// Sanity: what survived must match the facade's lock-free census.
	var live word.Size
	for _, h := range exchange.pool {
		live += h.Span.Size
	}
	if got := a.Live(); got != live {
		t.Fatalf("after workload: facade live %d, surviving handles sum to %d", got, live)
	}
}

// TestConcurrentDifferentialOracle is the concurrent twin of the PR 1
// differential oracle: a multi-goroutine run against the facade is
// recorded with shard-local sequence numbers, linearized, and
// replayed through the sequential shadow-state referee, which must
// find an identical live/free/occupancy state and zero violations.
func TestConcurrentDifferentialOracle(t *testing.T) {
	cfg := sim.Config{M: 1 << 12, N: 1 << 6, C: 16, Pow2Only: true, Capacity: 1 << 14, Shards: 4}
	t.Run("first-fit", func(t *testing.T) {
		a, err := sharded.NewAllocator(cfg, func() sim.Manager { return fits.New(fits.FirstFit) },
			sharded.Options{RecordOps: true, VerifyEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		concurrentWorkload(t, a, 4, 3000, false)
		ops := linearize(a.OpLog())
		if len(ops) == 0 {
			t.Fatal("no ops recorded")
		}
		replay(t, a, ops)
	})
	t.Run("mark-compact", func(t *testing.T) {
		a, err := sharded.NewAllocator(cfg, func() sim.Manager { return markcompact.New() },
			sharded.Options{RecordOps: true, VerifyEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		concurrentWorkload(t, a, 4, 2000, true)
		ops := linearize(a.OpLog())
		moves := 0
		for _, op := range ops {
			if op.Kind == sharded.OpMove {
				moves++
			}
		}
		if moves == 0 {
			t.Error("compacting workload recorded no moves")
		}
		replay(t, a, ops)
	})
}
