package heap

import (
	"testing"

	"compaction/internal/word"
)

// Steady-state alloc/release cycles through FreeSpace must not
// allocate: the index recycles its nodes through an internal freelist,
// and the size-class census is a fixed array. A regression here
// multiplies across every simulated round, which is exactly what
// pushed the paper-scale runs out of reach before the hot-path work —
// so it fails `go test`, not just a benchmark.
func TestFreeSpaceSteadyStateIsAllocFree(t *testing.T) {
	// The subtest is named after the treap, the index the cycle runs on.
	t.Run("treap", func(t *testing.T) {
		const capacity = 1 << 12
		fs := NewFreeSpace(capacity)
		spans := make([]Span, 0, 64)

		cycle := func() {
			spans = spans[:0]
			for i := 0; i < 64; i++ {
				size := word.Size(1 + i%7)
				a, err := fs.AllocFirstFit(size)
				if err != nil {
					t.Fatal(err)
				}
				spans = append(spans, Span{a, size})
			}
			// Free in an interleaved order so coalescing exercises both
			// the split and merge paths of the index.
			for i := 0; i < len(spans); i += 2 {
				if err := fs.Release(spans[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < len(spans); i += 2 {
				if err := fs.Release(spans[i]); err != nil {
					t.Fatal(err)
				}
			}
		}

		cycle() // warm the node freelist
		if avg := testing.AllocsPerRun(20, cycle); avg > 0 {
			t.Errorf("steady-state alloc/release cycle allocates %.1f times, want 0", avg)
		}
	})
}

// Same property for the best-fit path, which additionally maintains
// the lazily-built (Size, Addr) index.
func TestBestFitSteadyStateIsAllocFree(t *testing.T) {
	const capacity = 1 << 12
	fs := NewFreeSpace(capacity)
	spans := make([]Span, 0, 64)

	cycle := func() {
		spans = spans[:0]
		for i := 0; i < 64; i++ {
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
		for i := len(spans) - 2; i >= 0; i -= 2 {
			if err := fs.Release(spans[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg > 0 {
		t.Errorf("steady-state best-fit cycle allocates %.1f times, want 0", avg)
	}
}
