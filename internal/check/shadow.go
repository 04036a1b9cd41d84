package check

import "compaction/internal/heap"

// shadowTable is the referee's map from ObjectID to the live span of
// each object. It is deliberately not heap.SpanTable, so the shadow
// shares no code with the engine bookkeeping it checks. Like a map it
// takes any ID: IDs in [0, shadowDenseIDs) land in fixed pages made on
// first use, so sparse IDs leave the pages between them unmade, and
// negative or larger IDs go to a map. The referee thereby assumes
// nothing about how the program under check numbers its objects. A
// presence bit per slot keeps an empty span distinct from an absent
// one. Each page counts its entries and is dropped when the count
// reaches zero, so the pages held follow the live set, not the IDs
// ever issued. The last page dropped is kept as a spare for the next
// page made, so a move that empties a page and refills it at once (the
// referee re-places a moved object) allocates nothing.
//
// The zero value is an empty table.
type shadowTable struct {
	pages []*shadowPage
	spare *shadowPage // dropped, every slot absent
	other map[heap.ObjectID]heap.Span
	n     int
}

const (
	shadowPageBits = 12 // 4096 spans, 64 KiB per page
	shadowPageSize = 1 << shadowPageBits
	shadowDenseIDs = heap.ObjectID(1) << 31
)

type shadowPage struct {
	spans [shadowPageSize]heap.Span
	used  [shadowPageSize / 64]uint64
	n     int // entries present
}

// slot returns the page and index of a dense id; the page is nil when
// it is not made yet and grow is false.
func (t *shadowTable) slot(id heap.ObjectID, grow bool) (*shadowPage, int) {
	p := int(id >> shadowPageBits)
	if p >= len(t.pages) {
		if !grow {
			return nil, 0
		}
		t.pages = append(t.pages, make([]*shadowPage, p+1-len(t.pages))...)
	}
	if t.pages[p] == nil && grow {
		pg := t.spare
		if pg == nil {
			pg = new(shadowPage)
		}
		t.pages[p], t.spare = pg, nil
	}
	return t.pages[p], int(id & (shadowPageSize - 1))
}

func dense(id heap.ObjectID) bool { return id >= 0 && id < shadowDenseIDs }

// get returns the span stored for id.
func (t *shadowTable) get(id heap.ObjectID) (heap.Span, bool) {
	if !dense(id) {
		s, ok := t.other[id]
		return s, ok
	}
	pg, i := t.slot(id, false)
	if pg == nil || pg.used[i/64]&(1<<(i%64)) == 0 {
		return heap.Span{}, false
	}
	return pg.spans[i], true
}

// put stores s for id, which must be absent.
func (t *shadowTable) put(id heap.ObjectID, s heap.Span) {
	t.n++
	if !dense(id) {
		if t.other == nil {
			t.other = make(map[heap.ObjectID]heap.Span)
		}
		t.other[id] = s
		return
	}
	pg, i := t.slot(id, true)
	pg.spans[i] = s
	pg.used[i/64] |= 1 << (i % 64)
	pg.n++
}

// del removes id's entry and returns it.
func (t *shadowTable) del(id heap.ObjectID) (heap.Span, bool) {
	s, ok := t.get(id)
	if !ok {
		return s, false
	}
	t.n--
	if !dense(id) {
		delete(t.other, id)
		return s, true
	}
	pg, i := t.slot(id, false)
	pg.used[i/64] &^= 1 << (i % 64)
	if pg.n--; pg.n == 0 {
		t.pages[id>>shadowPageBits] = nil
		t.spare = pg
	}
	return s, true
}
