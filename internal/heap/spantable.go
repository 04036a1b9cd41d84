package heap

import "sort"

// SpanTable maps ObjectID → Span with paged dense storage. The
// simulation engine hands out sequential IDs, so a paged array beats a
// hash map on the hot allocation path: no hashing, no rehash growth
// pauses, and pages are retained across Reset for reuse. IDs outside
// the dense range (negative or astronomically large) fall back to a
// small overflow map so the table stays total over the ObjectID domain.
//
// A Span with Size == 0 marks an absent entry; SpanTable therefore
// refuses to store empty spans (its callers never have a reason to).
//
// The zero value is an empty, ready-to-use table.
type SpanTable struct {
	pages    [][]Span
	overflow map[ObjectID]Span
	n        int
}

const (
	spanPageBits = 15 // 32768 entries ≈ 512KiB per page
	spanPageSize = 1 << spanPageBits
	// spanDenseLimit bounds the ID range served by dense pages. Beyond
	// it the page-pointer slice itself would dominate memory, so such
	// IDs (never produced by the engine) go to the overflow map.
	spanDenseLimit = ObjectID(1) << 32
)

func (t *SpanTable) dense(id ObjectID) bool {
	return id >= 0 && id < spanDenseLimit
}

// Len returns the number of stored entries.
func (t *SpanTable) Len() int { return t.n }

// Get returns the span stored for id.
func (t *SpanTable) Get(id ObjectID) (Span, bool) {
	if !t.dense(id) {
		s, ok := t.overflow[id]
		return s, ok
	}
	p := int(id >> spanPageBits)
	if p >= len(t.pages) || t.pages[p] == nil {
		return Span{}, false
	}
	s := t.pages[p][id&(spanPageSize-1)]
	return s, s.Size != 0
}

// Set stores s for id, overwriting any previous entry. Empty spans are
// rejected by panic: they would be indistinguishable from absence.
func (t *SpanTable) Set(id ObjectID, s Span) {
	if s.Size <= 0 {
		panic("heap.SpanTable: empty span stored")
	}
	if !t.dense(id) {
		if t.overflow == nil {
			t.overflow = make(map[ObjectID]Span)
		}
		if _, ok := t.overflow[id]; !ok {
			t.n++
		}
		t.overflow[id] = s
		return
	}
	p := int(id >> spanPageBits)
	for p >= len(t.pages) {
		t.pages = append(t.pages, nil)
	}
	if t.pages[p] == nil {
		t.pages[p] = make([]Span, spanPageSize)
	}
	slot := &t.pages[p][id&(spanPageSize-1)]
	if slot.Size == 0 {
		t.n++
	}
	*slot = s
}

// Delete removes the entry for id and returns it.
func (t *SpanTable) Delete(id ObjectID) (Span, bool) {
	if !t.dense(id) {
		s, ok := t.overflow[id]
		if ok {
			delete(t.overflow, id)
			t.n--
		}
		return s, ok
	}
	p := int(id >> spanPageBits)
	if p >= len(t.pages) || t.pages[p] == nil {
		return Span{}, false
	}
	slot := &t.pages[p][id&(spanPageSize-1)]
	s := *slot
	if s.Size == 0 {
		return Span{}, false
	}
	*slot = Span{}
	t.n--
	return s, true
}

// Each calls fn for every entry — dense IDs in ascending order, then
// overflow IDs in ascending order — until fn returns false.
func (t *SpanTable) Each(fn func(ObjectID, Span) bool) {
	for p, page := range t.pages {
		if page == nil {
			continue
		}
		base := ObjectID(p) << spanPageBits
		for i := range page {
			if page[i].Size != 0 && !fn(base+ObjectID(i), page[i]) {
				return
			}
		}
	}
	if len(t.overflow) > 0 {
		ids := make([]ObjectID, 0, len(t.overflow))
		for id := range t.overflow {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if !fn(id, t.overflow[id]) {
				return
			}
		}
	}
}

// SpanVisitor receives the entries of a SpanTable walk (Visit).
type SpanVisitor interface {
	// Visit is called once per entry; returning false ends the walk.
	Visit(id ObjectID, s Span) bool
}

// Visit is Each for a hot path that keeps its walk state in a struct
// rather than a closure.
func (t *SpanTable) Visit(v SpanVisitor) { t.Each(v.Visit) }

// Reset empties the table while retaining allocated pages for reuse.
func (t *SpanTable) Reset() {
	for _, page := range t.pages {
		clear(page)
	}
	clear(t.overflow)
	t.n = 0
}
