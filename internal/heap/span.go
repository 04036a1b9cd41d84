// Package heap models the simulated heap of the partial-compaction
// framework: a word-addressed space [0, capacity) in which objects are
// placed by a memory manager.
//
// It provides two complementary views:
//
//   - FreeSpace: the set of free intervals, indexed for first-fit,
//     best-fit, next-fit, worst-fit and aligned placement queries.
//     Memory managers build on this. Its index is a B+tree of free
//     intervals by address whose inner nodes record the largest
//     interval under each child, plus the same tree by (Size, Addr),
//     built on first best-fit use.
//   - Occupancy: the set of placed objects, used by the simulation
//     engine as ground truth to validate that managers never overlap
//     objects and to measure the heap high-water mark. It keeps a
//     paged bitmap of occupied words and a paged span table by ID.
//
// Both recycle their storage, so simulations with hundreds of
// thousands of live objects stay fast and allocation-free in steady
// state.
package heap

import (
	"fmt"

	"compaction/internal/word"
)

// Span is a half-open interval [Addr, Addr+Size) of heap words.
type Span struct {
	Addr word.Addr
	Size word.Size
}

// End returns the first address past the span.
func (s Span) End() word.Addr { return s.Addr + s.Size }

// Empty reports whether the span contains no words.
func (s Span) Empty() bool { return s.Size <= 0 }

// Overlaps reports whether the two spans share at least one word.
func (s Span) Overlaps(t Span) bool {
	return s.Addr < t.End() && t.Addr < s.End()
}

// Contains reports whether t lies entirely within s.
func (s Span) Contains(t Span) bool {
	return s.Addr <= t.Addr && t.End() <= s.End()
}

// ContainsAddr reports whether address a lies within s.
func (s Span) ContainsAddr(a word.Addr) bool {
	return s.Addr <= a && a < s.End()
}

// Adjacent reports whether t starts exactly where s ends or vice versa.
func (s Span) Adjacent(t Span) bool {
	return s.End() == t.Addr || t.End() == s.Addr
}

func (s Span) String() string {
	return fmt.Sprintf("[%d,%d)", s.Addr, s.End())
}
