package stats

import (
	"strings"
	"testing"

	"compaction/internal/heap"
)

// occupancyOf places objs in a fresh occupancy record.
func occupancyOf(t *testing.T, objs ...heap.Object) *heap.Occupancy {
	t.Helper()
	occ := heap.NewOccupancy()
	for _, o := range objs {
		if err := occ.Place(o.ID, o.Span); err != nil {
			t.Fatal(err)
		}
	}
	return occ
}

func TestHeapMapEmpty(t *testing.T) {
	if got := HeapMap(occupancyOf(t), 0, 40); !strings.Contains(got, "empty") {
		t.Fatalf("empty map: %q", got)
	}
}

// stripOf extracts the cell glyphs between the bars as runes.
func stripOf(t *testing.T, out string) []rune {
	t.Helper()
	runes := []rune(out)
	first, last := -1, -1
	for i, r := range runes {
		if r == '|' {
			if first < 0 {
				first = i
			} else {
				last = i
				break
			}
		}
	}
	if first < 0 || last < 0 {
		t.Fatalf("no strip in %q", out)
	}
	return runes[first+1 : last]
}

func TestHeapMapDensities(t *testing.T) {
	// Extent 400, minimum width 10: cells of 40 words.
	occ := occupancyOf(t,
		heap.Object{ID: 1, Span: heap.Span{Addr: 0, Size: 100}},  // cells 0,1 full; 20 into cell 2
		heap.Object{ID: 2, Span: heap.Span{Addr: 100, Size: 60}}, // fills cell 2, cell 3
		heap.Object{ID: 3, Span: heap.Span{Addr: 200, Size: 10}}, // 25% of cell 5
	)
	strip := stripOf(t, HeapMap(occ, 400, 10))
	if len(strip) != 10 {
		t.Fatalf("strip length %d: %q", len(strip), string(strip))
	}
	want := []rune{'█', '█', '█', '█', ' ', '-', ' ', ' ', ' ', ' '}
	for i := range want {
		if strip[i] != want[i] {
			t.Errorf("cell %d = %q, want %q (strip %q)", i, strip[i], want[i], string(strip))
		}
	}
}

func TestHeapMapObjectSpanningCells(t *testing.T) {
	// Extent 1000, 10 cells of 100: an object at [50,150) splits half
	// into cell 0 and half into cell 1.
	occ := occupancyOf(t, heap.Object{ID: 1, Span: heap.Span{Addr: 50, Size: 100}})
	strip := stripOf(t, HeapMap(occ, 1000, 10))
	// Exactly 50% density falls in the '+' bucket ([50%, 75%)).
	if strip[0] != '+' || strip[1] != '+' {
		t.Fatalf("strip = %q, want two half-full leading cells", string(strip))
	}
}

func TestDensityHistogram(t *testing.T) {
	occ := occupancyOf(t,
		heap.Object{ID: 1, Span: heap.Span{Addr: 0, Size: 100}},
		heap.Object{ID: 2, Span: heap.Span{Addr: 100, Size: 60}},
		heap.Object{ID: 3, Span: heap.Span{Addr: 200, Size: 10}},
	)
	h := DensityHistogram(occ, 400, 4)
	want := [6]int{1, 1, 0, 1, 0, 1} // empty, <25, <50, <75, <100, full
	if h != want {
		t.Fatalf("histogram = %v, want %v", h, want)
	}
	if DensityHistogram(occupancyOf(t), 0, 4) != [6]int{} {
		t.Fatal("empty histogram nonzero")
	}
}

func TestHeapMapMinWidth(t *testing.T) {
	occ := occupancyOf(t, heap.Object{ID: 1, Span: heap.Span{Addr: 0, Size: 5}})
	out := HeapMap(occ, 5, 1) // clamped to >= 10 cells
	if !strings.Contains(out, "|") {
		t.Fatalf("malformed: %q", out)
	}
}
