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
// an adversary run the map shows a long, thinly-speckled heap. The
// cells cover [0, extent) of occ, the engine's occupancy record.
func HeapMap(occ *heap.Occupancy, extent word.Addr, width int) string {
	if width < 10 {
		width = 10
	}
	if extent <= 0 {
		return "(empty heap)\n"
	}
	liveIn, cell := binLive(occ, extent, width)
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
func DensityHistogram(occ *heap.Occupancy, extent word.Addr, cells int) [6]int {
	var out [6]int
	if extent <= 0 || cells <= 0 {
		return out
	}
	liveIn, cell := binLive(occ, extent, cells)
	for _, live := range liveIn {
		out[densityClass(live, cell)]++
	}
	return out
}

// binLive covers [0, extent) with cells of ceil(extent/cells) words
// and returns the occupied words of occ in each cell, from its runs of
// occupied words, and the cell size. extent and cells must be
// positive.
func binLive(occ *heap.Occupancy, extent word.Addr, cells int) ([]word.Size, word.Size) {
	cell := (extent + word.Addr(cells) - 1) / word.Addr(cells)
	liveIn := make([]word.Size, cells)
	occ.Runs(extent, func(addr word.Addr, n word.Size, set bool) bool {
		if !set {
			return true
		}
		for end := addr + n; addr < end; {
			ci := addr / cell
			next := min(end, (ci+1)*cell)
			liveIn[ci] += next - addr
			addr = next
		}
		return true
	})
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
