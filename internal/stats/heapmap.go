package stats

import (
	"fmt"
	"strings"

	"compaction/internal/heap"
	"compaction/internal/word"
)

// densityGlyphs draws each density class of densityClass.
var densityGlyphs = [6]rune{' ', '.', '-', '+', '#', '█'}

// HeapMap renders the occupancy of a heap as an ASCII strip: each cell
// covers extent/width words and is drawn by its live density:
//
//	' ' empty   '.' <25%   '-' <50%   '+' <75%   '#' <100%   '█' full
//
// It is the visual counterpart of the paper's density argument — after
// an adversary run the map shows a long, thinly-speckled heap.
func HeapMap(objs []heap.Object, extent word.Addr, width int) string {
	if width < 10 {
		width = 10
	}
	if extent <= 0 {
		return "(empty heap)\n"
	}
	liveIn, cell := binLive(objs, extent, width)
	var b strings.Builder
	b.WriteByte('|')
	for _, live := range liveIn {
		b.WriteRune(densityGlyphs[densityClass(live, cell)])
	}
	b.WriteByte('|')
	fmt.Fprintf(&b, " %d words, %d/cell\n", extent, cell)
	return b.String()
}

// DensityHistogram buckets the heap's cells by live density and
// returns counts for [0%, (0,25), [25,50), [50,75), [75,100), 100%].
func DensityHistogram(objs []heap.Object, extent word.Addr, cells int) [6]int {
	var out [6]int
	if extent <= 0 || cells <= 0 {
		return out
	}
	liveIn, cell := binLive(objs, extent, cells)
	for _, live := range liveIn {
		out[densityClass(live, cell)]++
	}
	return out
}

// binLive covers [0, extent) with cells of ceil(extent/cells) words
// and returns the live words of objs in each cell, and the cell size.
// extent and cells must be positive.
func binLive(objs []heap.Object, extent word.Addr, cells int) ([]word.Size, word.Size) {
	cell := (extent + word.Addr(cells) - 1) / word.Addr(cells)
	liveIn := make([]word.Size, cells)
	for _, o := range objs {
		first := o.Span.Addr / cell
		last := (o.Span.End() - 1) / cell
		for ci := first; ci <= last && ci < word.Addr(cells); ci++ {
			lo, hi := o.Span.Addr, o.Span.End()
			if cs := ci * cell; cs > lo {
				lo = cs
			}
			if ce := (ci + 1) * cell; ce < hi {
				hi = ce
			}
			liveIn[ci] += hi - lo
		}
	}
	return liveIn, cell
}

// densityClass classifies a cell by its live words: 0 empty, 1 below
// 25%, 2 below 50%, 3 below 75%, 4 below full, 5 full.
func densityClass(live, cell word.Size) int {
	switch d := float64(live) / float64(cell); {
	case live == 0:
		return 0
	case live >= cell:
		return 5
	case d < 0.25:
		return 1
	case d < 0.5:
		return 2
	case d < 0.75:
		return 3
	default:
		return 4
	}
}
