package heap

import (
	"fmt"

	"compaction/internal/word"
)

// ObjectID identifies an allocated object across its lifetime,
// including across compaction moves.
type ObjectID int64

// Object is a placed object: an identity plus its current span.
type Object struct {
	ID   ObjectID
	Span Span
}

// Occupancy is the ground-truth record of placed objects kept by the
// simulation engine. It detects overlapping placements and measures
// heap usage: the live word count, the current extent, and the
// high-water mark of the extent over the whole execution (the paper's
// heap size HS).
//
// Placement is backed by a paged bitmap (overlap checks and extent are
// word-mask operations, not tree descents) and identity by a paged
// dense span table whose pages follow the live objects; the bitmap
// retains its pages across Reset and the table pools its own, so a
// reused Occupancy runs allocation-free in steady state. The live,
// max-live, total-allocated, and high-water statistics are maintained
// incrementally on each mutation rather than recomputed.
type Occupancy struct {
	tab      SpanTable
	bits     Bitmap
	live     word.Size
	maxLive  word.Size
	ever     word.Addr // high-water mark of end addresses over all time
	totalled word.Size // cumulative words allocated over all time
}

// NewOccupancy returns an empty occupancy record.
func NewOccupancy() *Occupancy {
	return &Occupancy{}
}

// Reset empties the record, retaining internal pages for reuse.
func (o *Occupancy) Reset() {
	o.tab.Reset()
	o.bits.Reset()
	o.live, o.maxLive, o.ever, o.totalled = 0, 0, 0, 0
}

// Place records object id at span s. It fails if the id is already
// live or if s overlaps any live object.
func (o *Occupancy) Place(id ObjectID, s Span) error {
	if s.Empty() {
		return fmt.Errorf("heap.Place: object %d has empty span %v", id, s)
	}
	if s.Addr < 0 {
		return fmt.Errorf("heap.Place: object %d at negative address %v", id, s)
	}
	if _, ok := o.tab.Get(id); ok {
		return fmt.Errorf("heap.Place: object %d is already live", id)
	}
	if o.bits.AnyInRange(s.Addr, s.Size) {
		return fmt.Errorf("heap.Place: object %d: span %v overlaps a live object", id, s)
	}
	o.tab.Set(id, s)
	o.bits.SetRange(s.Addr, s.Size)
	o.live += s.Size
	if o.live > o.maxLive {
		o.maxLive = o.live
	}
	o.totalled += s.Size
	if s.End() > o.ever {
		o.ever = s.End()
	}
	return nil
}

// Remove deletes object id and returns its span.
func (o *Occupancy) Remove(id ObjectID) (Span, error) {
	s, ok := o.tab.Delete(id)
	if !ok {
		return Span{}, fmt.Errorf("heap.Remove: object %d is not live", id)
	}
	o.bits.ClearRange(s.Addr, s.Size)
	o.live -= s.Size
	return s, nil
}

// Move relocates object id to address to. The destination must not
// overlap any other live object (it may overlap the object's own old
// location, as sliding compaction does). It returns the old span.
func (o *Occupancy) Move(id ObjectID, to word.Addr) (Span, error) {
	s, ok := o.tab.Get(id)
	if !ok {
		return Span{}, fmt.Errorf("heap.Move: object %d is not live", id)
	}
	if to < 0 {
		return Span{}, fmt.Errorf("heap.Move: object %d to negative address %d", id, to)
	}
	// Temporarily clear the object so its own words do not count as a
	// conflict, permitting overlapping slides.
	o.bits.ClearRange(s.Addr, s.Size)
	ns := Span{Addr: to, Size: s.Size}
	if o.bits.AnyInRange(ns.Addr, ns.Size) {
		o.bits.SetRange(s.Addr, s.Size) // restore
		return Span{}, fmt.Errorf("heap.Move: object %d: span %v overlaps a live object", id, ns)
	}
	o.bits.SetRange(ns.Addr, ns.Size)
	o.tab.Set(id, ns)
	if ns.End() > o.ever {
		o.ever = ns.End()
	}
	return s, nil
}

// Lookup returns the current span of object id.
func (o *Occupancy) Lookup(id ObjectID) (Span, bool) {
	return o.tab.Get(id)
}

// Live returns the number of live words.
func (o *Occupancy) Live() word.Size { return o.live }

// MaxLive returns the maximum number of simultaneously live words seen.
func (o *Occupancy) MaxLive() word.Size { return o.maxLive }

// Objects returns the number of live objects.
func (o *Occupancy) Objects() int { return o.tab.Len() }

// TotalAllocated returns the cumulative number of words ever allocated.
func (o *Occupancy) TotalAllocated() word.Size { return o.totalled }

// HighWater returns the heap size HS: the end address of the
// highest-addressed word ever occupied. Per the paper, the heap is the
// smallest consecutive space the manager may use, so HS is the extent
// [0, HighWater).
func (o *Occupancy) HighWater() word.Addr { return o.ever }

// Extent returns the end address of the highest-addressed currently
// live word (0 when empty).
func (o *Occupancy) Extent() word.Addr {
	top, ok := o.bits.MaxSet()
	if !ok {
		return 0
	}
	return top + 1
}

// Runs exposes the occupancy bitmap's maximal same-valued bit runs in
// [0, upto): fn(addr, n, set) receives each run in address order (set
// runs are occupied words, clear runs are free intervals), stopping
// early when fn returns false. It is the ground-truth feed for
// fragmentation introspection (free-interval histograms, largest free
// extent, occupancy heatmaps in obs/heapscope) and performs no
// allocation, so sampled walks may run inside the engine's
// allocation-free round loop.
func (o *Occupancy) Runs(upto word.Addr, fn func(addr word.Addr, n word.Size, set bool) bool) {
	o.bits.Runs(upto, fn)
}
