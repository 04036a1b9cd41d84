package heap

import "sort"

// SpanTable maps ObjectID → Span with small paged dense storage. The
// simulation engine hands out sequential IDs, so a paged array beats a
// hash map on the hot allocation path: no hashing and no rehash growth
// pauses. IDs outside the dense range (negative or astronomically
// large) fall back to a small overflow map so the table stays total
// over the ObjectID domain.
//
// The table follows the live set, not the history of IDs issued. Each
// page carries a live count; a page whose last entry goes returns to
// the table's pool, and the next page made comes from there, so the
// pages held are the most ever live at once. Walks start at the first
// page in use. What grows with history is the page directory: one
// pointer and one count per spanPageSize IDs issued.
//
// A Span with Size == 0 marks an absent entry; SpanTable therefore
// refuses to store empty spans (its callers never have a reason to).
//
// The zero value is an empty, ready-to-use table.
type SpanTable struct {
	pages    []*spanPage // by page index; nil where no entry is live
	live     []int32     // entries per page, parallel to pages
	first    int         // no page below first holds an entry
	pool     []*spanPage // emptied pages, all absent, for reuse
	overflow map[ObjectID]Span
	n        int
}

type spanPage [spanPageSize]Span

const (
	spanPageBits = 10 // 1024 entries = 16 KiB per page
	spanPageSize = 1 << spanPageBits
	// spanDenseLimit bounds the ID range served by dense pages. Beyond
	// it the page directory itself would dominate memory, so such IDs
	// (never produced by the engine) go to the overflow map.
	spanDenseLimit = ObjectID(1) << 28
)

func (t *SpanTable) dense(id ObjectID) bool {
	return id >= 0 && id < spanDenseLimit
}

// Len returns the number of stored entries.
func (t *SpanTable) Len() int { return t.n }

// Slots returns the number of entries a walk (Each, Visit) may
// inspect: every slot of the pages in use, plus the overflow entries.
// It is the walk's cost in the same units whatever the hardware.
func (t *SpanTable) Slots() int {
	n := len(t.overflow)
	for p := t.first; p < len(t.pages); p++ {
		if t.pages[p] != nil {
			n += spanPageSize
		}
	}
	return n
}

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
	if p >= len(t.pages) {
		t.pages = append(t.pages, make([]*spanPage, p+1-len(t.pages))...)
		t.live = append(t.live, make([]int32, p+1-len(t.live))...)
	}
	pg := t.pages[p]
	if pg == nil {
		if k := len(t.pool); k > 0 {
			pg = t.pool[k-1]
			t.pool = t.pool[:k-1]
		} else {
			pg = new(spanPage)
		}
		t.pages[p] = pg
		t.first = min(t.first, p)
	}
	slot := &pg[id&(spanPageSize-1)]
	if slot.Size == 0 {
		t.live[p]++
		t.n++
	}
	*slot = s
}

// Delete removes the entry for id and returns it. A page left empty
// goes back to the pool.
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
	pg := t.pages[p]
	slot := &pg[id&(spanPageSize-1)]
	s := *slot
	if s.Size == 0 {
		return Span{}, false
	}
	*slot = Span{}
	t.n--
	if t.live[p]--; t.live[p] == 0 {
		t.pages[p], t.pool = nil, append(t.pool, pg)
		for t.first < len(t.pages) && t.pages[t.first] == nil {
			t.first++
		}
	}
	return s, true
}

// Each calls fn for every entry — dense IDs in ascending order, then
// overflow IDs in ascending order — until fn returns false.
func (t *SpanTable) Each(fn func(ObjectID, Span) bool) {
	for p := t.first; p < len(t.pages); p++ {
		page := t.pages[p]
		if page == nil {
			continue
		}
		base := ObjectID(p) << spanPageBits
		// Stop at the page's last entry: the rest of it is absent.
		left := t.live[p]
		for i := 0; left > 0; i++ {
			if page[i].Size == 0 {
				continue
			}
			left--
			if !fn(base+ObjectID(i), page[i]) {
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

// Reset empties the table: the pages in use are cleared and pooled.
func (t *SpanTable) Reset() {
	for p := t.first; p < len(t.pages); p++ {
		if pg := t.pages[p]; pg != nil {
			clear(pg[:])
			t.pool = append(t.pool, pg)
			t.pages[p] = nil
			t.live[p] = 0
		}
	}
	t.first = len(t.pages)
	clear(t.overflow)
	t.n = 0
}
