package heap

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"compaction/internal/word"
)

// Steady-state alloc/release cycles through FreeSpace must not
// allocate: the index recycles its nodes through a per-tree pool. A
// regression here multiplies across every simulated round, which is
// exactly what pushed the paper-scale runs out of reach before the
// hot-path work — so it fails `go test`, not just a benchmark.
func TestFreeSpaceSteadyStateIsAllocFree(t *testing.T) {
	// two-level splits the root leaf once. three-level takes the tree
	// to three levels and back, so leaves and inner nodes split,
	// merge and go back to the pool every cycle.
	for _, tc := range []struct {
		name          string
		spans, height int
	}{{"two-level", 64, 2}, {"three-level", 4096, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewFreeSpace(1 << 15)
			spans := make([]Span, 0, tc.spans)
			height := 0
			cycle := func() {
				spans = spans[:0]
				for i := 0; i < tc.spans; i++ {
					size := word.Size(1 + i%7)
					a, err := fs.AllocFirstFit(size)
					if err != nil {
						t.Fatal(err)
					}
					spans = append(spans, Span{a, size})
				}
				// Free in an interleaved order so coalescing exercises
				// both the insert and the join paths of the index.
				for i := 0; i < len(spans); i += 2 {
					if err := fs.Release(spans[i]); err != nil {
						t.Fatal(err)
					}
				}
				height = max(height, fs.byAddr.height)
				for i := 1; i < len(spans); i += 2 {
					if err := fs.Release(spans[i]); err != nil {
						t.Fatal(err)
					}
				}
			}

			cycle() // warm the node pool
			if avg := testing.AllocsPerRun(5, cycle); avg > 0 {
				t.Errorf("steady-state alloc/release cycle allocates %.1f times, want 0", avg)
			}
			if height != tc.height {
				t.Errorf("the cycle reached height %d, want %d", height, tc.height)
			}
		})
	}
}

// Same property for the best-fit path, which additionally maintains
// the lazily-built (Size, Addr) index.
func TestBestFitSteadyStateIsAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name          string
		spans, height int
	}{{"one-leaf", 64, 1}, {"three-level", 4096, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewFreeSpace(1 << 15)
			spans := make([]Span, 0, tc.spans)
			height := 0
			cycle := func() {
				spans = spans[:0]
				for i := 0; i < tc.spans; i++ {
					size := word.Size(1 + i%5)
					a, err := fs.AllocBestFit(size)
					if err != nil {
						t.Fatal(err)
					}
					spans = append(spans, Span{a, size})
				}
				for i := len(spans) - 1; i >= 0; i -= 2 {
					if err := fs.Release(spans[i]); err != nil {
						t.Fatal(err)
					}
				}
				height = max(height, fs.bySize.height)
				for i := len(spans) - 2; i >= 0; i -= 2 {
					if err := fs.Release(spans[i]); err != nil {
						t.Fatal(err)
					}
				}
			}

			cycle()
			if avg := testing.AllocsPerRun(5, cycle); avg > 0 {
				t.Errorf("steady-state best-fit cycle allocates %.1f times, want 0", avg)
			}
			if height != tc.height {
				t.Errorf("the cycle reached height %d, want %d", height, tc.height)
			}
		})
	}
}

// TestFreeSpaceBytesPerInterval pins the index's footprint: the live
// heap grows by at most 32 B per free interval for the address index,
// and 64 B once best-fit has built the size index, whatever the order
// the intervals arrive in. Monotone orders are the trap: splitting a
// full node in halves when every insert lands at one end leaves every
// node half full.
func TestFreeSpaceBytesPerInterval(t *testing.T) {
	const holes = 1 << 16
	for _, order := range []string{"ascending", "descending", "random"} {
		addrs := make([]word.Addr, holes)
		for i := range addrs {
			addrs[i] = word.Addr(2 * i)
		}
		switch order {
		case "descending":
			slices.Reverse(addrs)
		case "random":
			rand.New(rand.NewSource(1)).Shuffle(holes, func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		}
		for _, c := range []struct {
			index string
			limit float64
		}{{"address", 32}, {"address+size", 64}} {
			f := NewFreeSpace(2 * holes)
			if err := f.Reserve(Span{0, 2 * holes}); err != nil {
				t.Fatal(err)
			}
			if c.index == "address+size" {
				f.ensureSize()
			}
			before := liveHeap()
			for _, a := range addrs {
				if err := f.Release(Span{a, 1}); err != nil {
					t.Fatal(err)
				}
			}
			perInterval := float64(liveHeap()-before) / holes
			runtime.KeepAlive(f)
			t.Logf("%s, %s index: %.1f B per interval", order, c.index, perInterval)
			if perInterval > c.limit {
				t.Errorf("%s, %s index: %.1f B per interval, want at most %.0f", order, c.index, perInterval, c.limit)
			}
		}
	}
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
