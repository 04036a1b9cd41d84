// Package adversary provides the shared machinery of the "bad
// programs" — the adversarial allocation/de-allocation sequences that
// force memory managers to waste space. Subpackages implement the
// concrete adversaries:
//
//	adversary/robson  Robson's classical program P_R (JACM 1971/74)
//	adversary/pw      the Bendersky–Petrank program P_W (POPL 2011),
//	                  reconstructed
//
// The paper's own adversary P_F builds on the same notions and lives
// in internal/core (it is the primary contribution).
package adversary

import (
	"compaction/internal/heap"
	"compaction/internal/word"
)

// Occupying reports whether an object placed at span s is
// "f-occupying with respect to chunks of size align" (Definition 4.2
// of the paper): it occupies a word at some address k·align + f.
func Occupying(s heap.Span, f word.Addr, align word.Size) bool {
	if s.Empty() {
		return false
	}
	// The occupied offsets within a chunk form the window
	// [s.Addr mod align, s.Addr mod align + s.Size) taken cyclically.
	// If the object is at least one chunk long it hits every offset.
	if s.Size >= align {
		return true
	}
	r := (f - s.Addr) % align
	if r < 0 {
		r += align
	}
	return r < s.Size
}

// OccupyingWord returns the lowest address of the form k·align + f
// occupied by the object at span s. It panics if the object is not
// f-occupying; callers check with Occupying first.
func OccupyingWord(s heap.Span, f word.Addr, align word.Size) word.Addr {
	if !Occupying(s, f, align) {
		panic("adversary: OccupyingWord on non-occupying object")
	}
	r := (f - s.Addr) % align
	if r < 0 {
		r += align
	}
	w := s.Addr + r
	if w >= s.End() {
		panic("adversary: occupying-word computation out of range")
	}
	return w
}

// Tracked is an object record the adversaries keep: identity, size and
// the address it had when allocated (ghosts keep their allocation-time
// address per Definition 4.1).
type Tracked struct {
	ID   heap.ObjectID
	Span heap.Span
}

// WastePerOffset computes Σ (2^step − |o|) over the f-occupying
// objects among objs, the quantity Robson's offset choice maximizes
// (line 4 of Algorithm 2, line 5 of Algorithm 1).
func WastePerOffset(objs []Tracked, f word.Addr, align word.Size) word.Size {
	var sum word.Size
	for _, o := range objs {
		if Occupying(o.Span, f, align) {
			sum += align - o.Span.Size
		}
	}
	return sum
}

// ChooseOffset implements the offset update rule: given the previous
// offset fPrev for chunks of size align/2, pick f ∈ {fPrev,
// fPrev + align/2} maximizing WastePerOffset for chunks of size align.
// Ties keep fPrev, which makes runs deterministic.
func ChooseOffset(objs []Tracked, fPrev word.Addr, align word.Size) word.Addr {
	alt := fPrev + align/2
	if WastePerOffset(objs, alt, align) > WastePerOffset(objs, fPrev, align) {
		return alt
	}
	return fPrev
}
