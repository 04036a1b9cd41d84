package threshold

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"compaction/internal/core"
	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
	"compaction/internal/workload"
)

// The census is kept incrementally so a scan never recounts the heap.
// These properties pin the other half of that contract: after every
// Allocate, Free and StartRound it equals a recount over the scan
// list, and a scan that finds a sparse chunk allocates nothing once its
// buffers have grown.

// recount rebuilds the live words and objects per chunk from the scan
// list, computing each chunk's share of an object from its bounds.
func recount(m *Manager) (words []word.Size, objs []int32) {
	grow := func(k int64) {
		for int64(len(words)) <= k {
			words = append(words, 0)
			objs = append(objs, 0)
		}
	}
	grow(int64(len(m.census.chunks)) - 1)
	m.Objs.Each(func(_ heap.ObjectID, s heap.Span) bool {
		first := word.ChunkIndex(s.Addr, m.chunkSize)
		last := word.ChunkIndex(s.End()-1, m.chunkSize)
		grow(last)
		for k := first; k <= last; k++ {
			lo := max(s.Addr, k*m.chunkSize)
			hi := min(s.End(), (k+1)*m.chunkSize)
			words[k] += hi - lo
			objs[k]++
		}
		return true
	})
	return words, objs
}

// censusError reports where the census departs from a recount, or
// from its resting state between scans (no chunk ranked).
func censusError(m *Manager) error {
	words, objs := recount(m)
	if len(words) != len(m.census.chunks) {
		return fmt.Errorf("census covers %d chunks, the objects reach %d", len(m.census.chunks), len(words))
	}
	for k, ch := range m.census.chunks {
		if ch.words != words[k] || ch.objs != objs[k] || ch.rank != 0 {
			return fmt.Errorf("chunk %d: census {words %d, objs %d, rank %d}, recount {words %d, objs %d}",
				k, ch.words, ch.objs, ch.rank, words[k], objs[k])
		}
	}
	return nil
}

// censusChecker runs a Manager and checks its census after every call.
type censusChecker struct {
	*Manager
	err error
}

func (c *censusChecker) check(op string) {
	if c.err == nil {
		if err := censusError(c.Manager); err != nil {
			c.err = fmt.Errorf("after %s: %w", op, err)
		}
	}
}

func (c *censusChecker) Allocate(id heap.ObjectID, size word.Size, mv sim.Mover) (word.Addr, error) {
	addr, err := c.Manager.Allocate(id, size, mv)
	c.check("Allocate")
	return addr, err
}

func (c *censusChecker) Free(id heap.ObjectID, s heap.Span) {
	c.Manager.Free(id, s)
	c.check("Free")
}

func (c *censusChecker) StartRound(mv sim.Mover) {
	c.Manager.StartRound(mv)
	c.check("StartRound")
}

// runChecked runs prog against a census-checked threshold manager.
func runChecked(cfg sim.Config, prog sim.Program) (sim.Result, error) {
	c := &censusChecker{Manager: New()}
	e, err := sim.NewEngine(cfg, prog, c)
	if err != nil {
		return sim.Result{}, err
	}
	res, err := e.Run()
	if err != nil {
		return res, err
	}
	return res, c.err
}

// Property: under seeded random churn, whose moved objects survive,
// the census matches a recount after every call.
func TestCensusMatchesRecountUnderChurn(t *testing.T) {
	var moves int64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := sim.Config{
			M:        1 << 9,
			N:        word.Pow2(2 + rng.Intn(4)),
			C:        []int64{0, 1, 2, 4, 16}[rng.Intn(5)],
			Pow2Only: true,
		}
		prog := workload.NewRandom(workload.Config{
			Seed: seed, Rounds: 20,
			ChurnFrac: 0.2 + 0.6*rng.Float64(),
			Dist:      workload.SizeDist(rng.Intn(3)),
		})
		res, err := runChecked(cfg, prog)
		if err != nil {
			t.Logf("seed %d, %+v: %v", seed, cfg, err)
			return false
		}
		moves += res.Moves
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatal("no run moved an object; the property never saw a move")
	}
}

// Property: under P_F, which frees every object it sees moved, the
// census matches a recount after every call.
func TestCensusMatchesRecountUnderPF(t *testing.T) {
	for _, c := range []int64{16, 64} {
		cfg := sim.Config{M: 1 << 12, N: 1 << 6, C: c, Pow2Only: true}
		res, err := runChecked(cfg, core.NewPF(core.Options{}))
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		if res.Moves == 0 {
			t.Errorf("c=%d: no moves; the property never saw a move", c)
		}
	}
}

// acceptingMover accepts every move; with freed set, the program frees
// each object it sees moved, as P_F does.
type acceptingMover struct {
	freed bool
	moves int
}

func (m *acceptingMover) Move(heap.ObjectID, word.Addr) (bool, error) {
	m.moves++
	return m.freed, nil
}
func (m *acceptingMover) Remaining() word.Size                   { return 1 << 20 }
func (m *acceptingMover) Lookup(heap.ObjectID) (heap.Span, bool) { return heap.Span{}, false }

// place allocates size words for the next ID and checks the address.
func place(t *testing.T, m *Manager, id heap.ObjectID, size word.Size, want word.Addr) {
	t.Helper()
	if addr, err := m.Allocate(id, size, nil); err != nil || addr != want {
		t.Fatalf("Allocate(%d, %d) = %d, %v; want %d", id, size, addr, err, want)
	}
}

// TestScanGrowsCensusForMoves evacuates an object to the first free
// words past the chunks any allocation has reached: the census must
// cover its destination.
func TestScanGrowsCensusForMoves(t *testing.T) {
	m := New()
	m.Reset(sim.Config{M: 1 << 10, N: 16, C: 16, Capacity: 1 << 10}) // chunks of 64 words
	// X at 0 and Y at 112 leave chunks 0 and 1 sparse; the hole
	// between them starts in chunk 0, so X's destination is 128.
	for id := heap.ObjectID(1); id <= 8; id++ {
		place(t, m, id, 16, word.Addr(id-1)*16)
	}
	for id := heap.ObjectID(2); id <= 7; id++ {
		m.Free(id, heap.Span{Addr: word.Addr(id-1) * 16, Size: 16})
	}
	if len(m.census.chunks) != 2 {
		t.Fatalf("census covers %d chunks before the scan, want 2", len(m.census.chunks))
	}
	m.StartRound(&acceptingMover{})
	if s, _ := m.Objs.Get(1); s.Addr != 128 {
		t.Fatalf("X moved to %v, want 128", s)
	}
	if err := censusError(m); err != nil {
		t.Fatal(err)
	}
}

// TestWarmScanIsAllocFree pins a scan that finds a sparse chunk,
// evacuates its object and sees the program free it, at 0 allocations
// once the scan buffers have grown.
func TestWarmScanIsAllocFree(t *testing.T) {
	m := New()
	m.Reset(sim.Config{M: 1 << 10, N: 16, C: 16, Capacity: 1 << 10}) // chunks of 64 words
	// Chunk 0 is full but for a hole at 0; chunk 1 holds one object,
	// at 64, and is sparse.
	next := heap.ObjectID(1)
	for a := word.Addr(0); a <= 64; a += 8 {
		place(t, m, next, 8, a)
		next++
	}
	m.Free(1, heap.Span{Addr: 0, Size: 8})
	mv := &acceptingMover{freed: true}
	cycle := func() {
		m.freedSinceScan = m.chunkSize
		m.StartRound(mv) // moves the object at 64 into the hole at 0
		place(t, m, next, 8, 0)
		place(t, m, next+1, 8, 64)
		m.Free(next, heap.Span{Addr: 0, Size: 8})
		next += 2
	}
	cycle()
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Fatalf("warm scan allocates %.1f times per round, want 0", allocs)
	}
	if want := runs + 2; mv.moves != want { // AllocsPerRun adds a warm-up run
		t.Fatalf("%d moves, want one per scan (%d)", mv.moves, want)
	}
	if err := censusError(m); err != nil {
		t.Fatal(err)
	}
}
