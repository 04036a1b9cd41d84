package bitmapff

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

func reset(capacity word.Size) *Manager {
	m := New()
	m.Reset(sim.Config{M: capacity, N: 64, C: -1, Capacity: capacity})
	return m
}

func TestSequentialFill(t *testing.T) {
	m := reset(256)
	for i := 0; i < 4; i++ {
		a, err := m.Allocate(heap.ObjectID(i), 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != word.Addr(i*64) {
			t.Fatalf("alloc %d at %d", i, a)
		}
	}
	if _, err := m.Allocate(99, 1, nil); err != heap.ErrNoFit {
		t.Fatalf("full heap: %v", err)
	}
	if m.OccupiedWords() != 256 {
		t.Fatalf("occupied = %d", m.OccupiedWords())
	}
}

func TestFirstFitFindsLowestHole(t *testing.T) {
	m := reset(512)
	spans := make(map[heap.ObjectID]heap.Span)
	for i := heap.ObjectID(0); i < 8; i++ {
		a, err := m.Allocate(i, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		spans[i] = heap.Span{Addr: a, Size: 64}
	}
	m.Free(2, spans[2]) // hole at 128
	m.Free(5, spans[5]) // hole at 320
	a, err := m.Allocate(100, 30, nil)
	if err != nil || a != 128 {
		t.Fatalf("first fit chose %d (%v), want 128", a, err)
	}
	// Remaining hole at 158..192 fits 34 words; a 40-word request must
	// go to 320.
	a, err = m.Allocate(101, 40, nil)
	if err != nil || a != 320 {
		t.Fatalf("first fit chose %d (%v), want 320", a, err)
	}
}

func TestRunsAcrossGranules(t *testing.T) {
	m := reset(512)
	// Occupy [0,60): a 100-word request must go at 60, spanning the
	// granule boundary at 64.
	if _, err := m.Allocate(1, 60, nil); err != nil {
		t.Fatal(err)
	}
	a, err := m.Allocate(2, 100, nil)
	if err != nil || a != 60 {
		t.Fatalf("cross-granule alloc at %d (%v), want 60", a, err)
	}
}

func TestUnalignedBoundaryMasks(t *testing.T) {
	m := reset(256)
	a1, _ := m.Allocate(1, 3, nil)
	a2, _ := m.Allocate(2, 5, nil)
	a3, _ := m.Allocate(3, 7, nil)
	if a1 != 0 || a2 != 3 || a3 != 8 {
		t.Fatalf("odd-size packing: %d %d %d", a1, a2, a3)
	}
	m.Free(2, heap.Span{Addr: 3, Size: 5})
	if m.isFree(2) || !m.isFree(3) || !m.isFree(7) || m.isFree(8) {
		t.Fatal("free range boundaries wrong")
	}
	a4, err := m.Allocate(4, 5, nil)
	if err != nil || a4 != 3 {
		t.Fatalf("exact hole reuse at %d (%v)", a4, err)
	}
}

func TestWatermarkRollsBack(t *testing.T) {
	m := reset(1 << 10)
	spans := make(map[heap.ObjectID]heap.Span)
	for i := heap.ObjectID(0); i < 16; i++ {
		a, _ := m.Allocate(i, 64, nil)
		spans[i] = heap.Span{Addr: a, Size: 64}
	}
	// Watermark is at the top now; freeing a low object must roll it
	// back so first-fit finds the low hole again.
	m.Free(0, spans[0])
	a, err := m.Allocate(100, 64, nil)
	if err != nil || a != 0 {
		t.Fatalf("post-rollback alloc at %d (%v), want 0", a, err)
	}
}

func TestNeverPlacesPastCapacity(t *testing.T) {
	// 100 words leave 28 words of the second granule past Capacity;
	// they must never be handed out.
	m := reset(100)
	if a, err := m.Allocate(1, 90, nil); err != nil || a != 0 {
		t.Fatalf("Allocate(1, 90) = %d, %v; want 0", a, err)
	}
	if a, err := m.Allocate(2, 20, nil); err != heap.ErrNoFit {
		t.Fatalf("Allocate(2, 20) = %d, %v; want ErrNoFit (a span at 90 ends past capacity 100)", a, err)
	}
	if got := m.OccupiedWords(); got != 90 {
		t.Fatalf("occupied = %d, want 90", got)
	}
}

func TestResetRefusesCapacityBeyondTree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset accepted a capacity whose runs overflow an int32 summary")
		}
	}()
	reset(math.MaxInt32 + 1)
}

// TestResetFootprint pins what Reset allocates at 14 B per granule plus
// a small constant: 8 B of bitmap, 3 B of granule summaries and at most
// 3 B of summary tree. The second capacity has two blocks past a power
// of two, the worst case for a tree padded to a power of two.
func TestResetFootprint(t *testing.T) {
	for _, capacity := range []word.Size{1 << 24, 1<<24 + blockWords + 1} {
		m := New()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.Reset(sim.Config{M: capacity / 64, N: 64, C: -1, Capacity: capacity})
		runtime.ReadMemStats(&after)
		granules := uint64(capacity+granuleWords-1) / granuleWords
		got := after.TotalAlloc - before.TotalAlloc
		if limit := 14*granules + 64<<10; got > limit {
			t.Errorf("capacity %d: Reset allocated %d B, %.2f B per granule; limit %d B", capacity, got, float64(got)/float64(granules), limit)
		}
		t.Logf("capacity %d: %.2f B per granule", capacity, float64(got)/float64(granules))
	}
}

func TestWarmAllocateFreeIsAllocFree(t *testing.T) {
	m := reset(1 << 16)
	// Fragment the heap so the descent and the block walk both run.
	for i := heap.ObjectID(1); i <= 300; i++ {
		a, err := m.Allocate(i, 37, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			m.Free(i, heap.Span{Addr: a, Size: 37})
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		a, err := m.Allocate(1000, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.Free(1000, heap.Span{Addr: a, Size: 50})
	})
	if allocs != 0 {
		t.Fatalf("Allocate/Free pair allocates %.1f times", allocs)
	}
}

// validate recomputes every stored summary from the bitmap alone: it
// lists the maximal free runs below Capacity bit by bit, clips them to
// each granule's and each tree node's range, and reports the first
// stored triple that differs. It also checks that the words past
// Capacity are occupied and that the levels have the shape Reset
// gives them.
func (m *Manager) validate() error {
	if tail := uint(m.capacity % granuleWords); tail != 0 {
		if w := m.fine[len(m.fine)-1]; w|(1<<tail-1) != ^uint64(0) {
			return fmt.Errorf("words past capacity %d are free: last granule %#x", m.capacity, w)
		}
	}
	var runs []heap.Span
	for a := word.Addr(0); a < m.capacity; a++ {
		if !m.isFree(a) {
			continue
		}
		start := a
		for a < m.capacity && m.isFree(a) {
			a++
		}
		runs = append(runs, heap.Span{Addr: start, Size: a - start})
	}
	clip := func(lo, hi word.Addr) summary {
		var s summary
		i := sort.Search(len(runs), func(i int) bool { return runs[i].End() > lo })
		for ; i < len(runs) && runs[i].Addr < hi; i++ {
			a, e := max(runs[i].Addr, lo), min(runs[i].End(), hi)
			n := int32(e - a)
			if a == lo {
				s.pre = n
			}
			if e == hi {
				s.suf = n
			}
			s.max = max(s.max, n)
		}
		return s
	}
	for g, mt := range m.meta {
		lo := word.Addr(g) * granuleWords
		got := summary{int32(mt.pre), int32(mt.suf), int32(mt.max)}
		if want := clip(lo, lo+granuleWords); got != want {
			return fmt.Errorf("granule %d: stored %+v, bitmap says %+v", g, got, want)
		}
	}
	n := max(1, (len(m.meta)+blockGranules-1)/blockGranules)
	for k, level := range m.levels {
		if len(level) != n {
			return fmt.Errorf("level %d holds %d nodes, want %d", k, len(level), n)
		}
		if n == 1 && k != len(m.levels)-1 {
			return fmt.Errorf("level %d holds the root, but %d levels follow it", k, len(m.levels)-1-k)
		}
		width := word.Addr(blockWords) << k
		for j, got := range level {
			lo := word.Addr(j) * width
			if want := clip(lo, lo+width); got != want {
				return fmt.Errorf("level %d node %d: stored %+v, bitmap says %+v", k, j, got, want)
			}
		}
		n = (n + 1) / 2
	}
	if top := m.levels[len(m.levels)-1]; len(top) != 1 {
		return fmt.Errorf("top level holds %d nodes, want the root alone", len(top))
	}
	return nil
}

// modelRun drives a Manager and a brute-force boolean-array model of
// the same heap through one operation sequence. It checks every
// placement and every ErrNoFit against the model's first fit, the
// occupied count against the model's, and validate after each
// operation.
type modelRun struct {
	m        *Manager
	used     []bool
	occupied word.Size
	live     []liveObject
	next     heap.ObjectID
}

type liveObject struct {
	id heap.ObjectID
	s  heap.Span
}

func newModelRun(capacity word.Size) *modelRun {
	return &modelRun{m: reset(capacity), used: make([]bool, capacity), next: 1}
}

func (r *modelRun) firstFit(size word.Size) (word.Addr, bool) {
	run := word.Size(0)
	for a := range r.used {
		if r.used[a] {
			run = 0
			continue
		}
		if run++; run == size {
			return word.Addr(a) - size + 1, true
		}
	}
	return 0, false
}

func (r *modelRun) mark(s heap.Span, v bool) {
	for a := s.Addr; a < s.End(); a++ {
		r.used[a] = v
	}
}

func (r *modelRun) check() error {
	if got := r.m.OccupiedWords(); got != r.occupied {
		return fmt.Errorf("occupied = %d, model %d", got, r.occupied)
	}
	return r.m.validate()
}

func (r *modelRun) allocate(size word.Size) error {
	want, ok := r.firstFit(size)
	got, err := r.m.Allocate(r.next, size, nil)
	switch {
	case !ok && err != heap.ErrNoFit:
		return fmt.Errorf("Allocate(%d) = %d, %v; model has no fit", size, got, err)
	case ok && (err != nil || got != want):
		return fmt.Errorf("Allocate(%d) = %d, %v; model's first fit is %d", size, got, err, want)
	case ok:
		s := heap.Span{Addr: got, Size: size}
		r.mark(s, true)
		r.occupied += size
		r.live = append(r.live, liveObject{r.next, s})
		r.next++
	}
	return r.check()
}

func (r *modelRun) free(i int) error {
	o := r.live[i]
	r.live[i] = r.live[len(r.live)-1]
	r.live = r.live[:len(r.live)-1]
	r.m.Free(o.id, o.s)
	r.mark(o.s, false)
	r.occupied -= o.s.Size
	return r.check()
}

// TestAgainstReferenceModel runs seeded allocate/free sequences against
// the brute-force model. The capacities cover odd tails (100, 4,133),
// one block (640), and many blocks over several tree levels (2^14,
// 70,000); sizes run up to capacity/8, plus powers of two up to the
// capacity.
func TestAgainstReferenceModel(t *testing.T) {
	for _, capacity := range []word.Size{100, 640, 4133, 1 << 14, 70000} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("capacity=%d/seed=%d", capacity, seed), func(t *testing.T) {
				r := newModelRun(capacity)
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 1500; step++ {
					var err error
					if rng.Intn(2) == 0 || len(r.live) == 0 {
						size := 1 + rng.Int63n(capacity/8)
						if rng.Intn(4) == 0 {
							size = 1 << rng.Intn(bits.Len64(uint64(capacity)))
						}
						err = r.allocate(size)
					} else {
						err = r.free(rng.Intn(len(r.live)))
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			})
		}
	}
}

// FuzzBitmapFirstFit decodes bytes into a heap and an operation
// sequence and runs it against the brute-force model. The first two
// bytes pick the capacity, 1 to 2^14 words (32 blocks, six tree
// levels). Each later byte pair is one operation: an even first byte
// allocates fuzzSize(second), an odd one frees the live object the
// second byte picks.
func FuzzBitmapFirstFit(f *testing.F) {
	f.Add([]byte{0, 99, 0, 89, 0, 19}) // capacity 100: 90 words, then 20
	f.Add([]byte{2, 127, 0, 255, 0, 100, 1, 0, 0, 200, 0, 7})
	churn := make([]byte, 802) // 400 operations over a 2^14-word heap
	rand.New(rand.NewSource(1)).Read(churn)
	churn[0], churn[1] = 0x3f, 0xff
	f.Add(churn)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		r := newModelRun(1 + word.Size(binary.BigEndian.Uint16(data)%(1<<14)))
		for i := 2; i+1 < len(data); i += 2 {
			var err error
			switch op, b := data[i], data[i+1]; {
			case op%2 == 0:
				err = r.allocate(fuzzSize(b))
			case len(r.live) > 0:
				err = r.free(int(b) % len(r.live))
			}
			if err != nil {
				t.Fatalf("op %d: %v", i/2-1, err)
			}
		}
	})
}

// fuzzSize maps a byte to a request size: 1 to 192 words, or for bytes
// from 192 up a power of two from 1 to 2^14 words.
func fuzzSize(b byte) word.Size {
	if b < 192 {
		return word.Size(b) + 1
	}
	return 1 << ((b - 192) % 15)
}
