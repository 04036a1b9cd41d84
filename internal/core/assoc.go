package core

import (
	"fmt"
	"slices"

	"compaction/internal/heap"
	"compaction/internal/word"
)

// portion says how much of an object a chunk's association set holds:
// the whole object, or exactly half of it (Section 4's half-objects:
// an object lying on the border of two chunks may have half of its
// size associated with each, "ignoring the actual way the object is
// split between the chunks").
type portion uint8

const (
	half portion = iota
	full
)

// object is P_F's record of one allocation. Live objects always sit at
// their allocation-time address (P_F frees every object the manager
// moves, so nothing live ever changes address). The record is 16 bytes
// and holds no pointers; its ID is its index in the objectTable, and
// its associations live in the chunkTable's entries.
type object struct {
	addr word.Addr
	lg   uint8 // log2 of the size: a P_F run allocates powers of two only
	live bool
	// ghost marks a stage-I object that was compacted and immediately
	// freed but is still counted by the program at its original address
	// (Definition 4.1).
	ghost bool
}

func (o *object) size() word.Size { return word.Size(1) << o.lg }

func (o *object) span() heap.Span { return heap.Span{Addr: o.addr, Size: o.size()} }

// objectTable holds object records by value, indexed by ObjectID (the
// engine hands out sequential IDs). It grows a page at a time, so
// growth never copies the records already stored and a record's
// address stays stable. A zero record is an object P_F does not track.
type objectTable struct {
	pages [][]object
}

const (
	objPageBits = 12 // 4096 records, 64 KiB per page
	objPageSize = 1 << objPageBits
)

// at returns the record for id, or nil when id lies past the table.
func (t *objectTable) at(id heap.ObjectID) *object {
	p := id >> objPageBits
	if id < 0 || p >= heap.ObjectID(len(t.pages)) {
		return nil
	}
	return &t.pages[p][id&(objPageSize-1)]
}

// place records a live object at span s.
func (t *objectTable) place(id heap.ObjectID, s heap.Span) *object {
	if id < 0 || !word.IsPow2(s.Size) {
		panic(fmt.Sprintf("core: object %d placed at %v: P_F tracks non-negative IDs and power-of-two sizes", id, s))
	}
	for id>>objPageBits >= heap.ObjectID(len(t.pages)) {
		t.pages = append(t.pages, make([]object, objPageSize))
	}
	o := t.at(id)
	*o = object{addr: s.Addr, lg: uint8(word.Log2(s.Size)), live: true}
	return o
}

// each calls fn for every record in ID order, untracked ones included.
func (t *objectTable) each(fn func(heap.ObjectID, *object)) {
	for p, page := range t.pages {
		base := heap.ObjectID(p) << objPageBits
		for i := range page {
			fn(base+heap.ObjectID(i), &page[i])
		}
	}
}

// entry is one association: object id holds portion p of its chunk's
// set O_D. A half entry names the chunk holding the other half in
// other; other is -1 for full entries and for a half whose partner
// was discarded when placeNew overwrote its chunk.
type entry struct {
	id    heap.ObjectID
	other int64
	p     portion
}

// chunkTable maintains the paper's association of objects with aligned
// chunks during the second stage: the sets O_D, the set E of middle
// chunks, and the step-change merging. Chunk k at step i spans
// [k·2^i, (k+1)·2^i).
//
// The sets are stored densely in chunk order: chunk d's entries are
// ents[at[d] : at[d]+n[d]], and its region of slots runs to at[d+1].
// Every region keeps at least one slot, so placeNew, which adds one
// entry to each of two chunks it has just cleared, never has to make
// room; doubleStep packs each merged pair of sets down the array in
// place; and chunks added past the end of the table reuse the slots
// packing freed. Entry order within a chunk is arbitrary and never
// load-bearing — every consumer either sums or sorts by a total order.
type chunkTable struct {
	step int // current step i; chunk size is 2^i
	ell  int // density exponent ℓ; the target density is 2^-ℓ
	objs *objectTable

	ents []entry
	at   []int32 // len(n)+1 region starts; a run has under 2^31 entries
	n    []int32
	inE  []bool

	// Reused scratch buffers for the per-round scans.
	coverBuf []int64
	trimBuf  []entry
	work     []int64
	queued   []bool

	// Diagnostics for the Claim 4.16 accounting: accumulated prior
	// potential of chunks overwritten by placeNew, split by whether it
	// came from dead entries or E membership.
	reusedDeadU, reusedEU word.Size
}

func newChunkTable(step, ell int, objs *objectTable) *chunkTable {
	return &chunkTable{step: step, ell: ell, objs: objs, at: []int32{0}}
}

// chunkSize returns the current chunk size 2^step.
func (t *chunkTable) chunkSize() word.Size { return word.Pow2(t.step) }

// set returns the entries of chunk d (none past the table).
func (t *chunkTable) set(d int64) []entry {
	if d < 0 || d >= int64(len(t.n)) {
		return nil
	}
	a := t.at[d]
	return t.ents[a : a+t.n[d]]
}

// grow extends the table to cover chunk d, one slot per new chunk.
func (t *chunkTable) grow(d int64) {
	for int64(len(t.n)) <= d {
		t.ents = append(t.ents, entry{})
		t.at = append(t.at, int32(len(t.ents)))
		t.n = append(t.n, 0)
		t.inE = append(t.inE, false)
	}
}

// contribution returns the words an entry contributes to Σ_{o∈O_D}|o|.
func (t *chunkTable) contribution(e entry) word.Size {
	s := t.objs.at(e.id).size()
	if e.p == half {
		return s / 2
	}
	return s
}

// sum returns Σ_{o∈O_D}|o| for chunk d, counting dead (compacted-away)
// entries too: association is only removed when P_F de-allocates the
// object or a new object is placed on the chunk.
func (t *chunkTable) sum(d int64) word.Size {
	var s word.Size
	for _, e := range t.set(d) {
		s += t.contribution(e)
	}
	return s
}

// find returns the position of id's entry within chunk d, or -1.
func (t *chunkTable) find(d int64, id heap.ObjectID) int {
	return slices.IndexFunc(t.set(d), func(e entry) bool { return e.id == id })
}

// entry returns id's portion in chunk d, if associated.
func (t *chunkTable) entry(d int64, id heap.ObjectID) (portion, bool) {
	if i := t.find(d, id); i >= 0 {
		return t.set(d)[i].p, true
	}
	return 0, false
}

// associateAll performs line 9 of Algorithm 1 for every survivor at
// once, laying the table out exactly: survivors calls add(id, d) for
// each object id to associate fully with chunk d, and must make the
// same calls both times associateAll runs it. The table must be empty.
func (t *chunkTable) associateAll(survivors func(add func(heap.ObjectID, int64))) {
	survivors(func(_ heap.ObjectID, d int64) {
		if d >= int64(len(t.n)) {
			t.n = append(t.n, make([]int32, d+1-int64(len(t.n)))...)
		}
		t.n[d]++
	})
	t.at = make([]int32, len(t.n)+1)
	for d, n := range t.n {
		t.at[d+1] = t.at[d] + max(n, 1)
	}
	t.ents = make([]entry, t.at[len(t.n)])
	t.inE = make([]bool, len(t.n))
	clear(t.n)
	survivors(func(id heap.ObjectID, d int64) {
		t.ents[t.at[d]+t.n[d]] = entry{id: id, other: -1, p: full}
		t.n[d]++
	})
}

// associateHalves associates half of object id with chunk d1 and the
// other half with chunk d2.
func (t *chunkTable) associateHalves(id heap.ObjectID, d1, d2 int64) {
	t.addEntry(d1, entry{id: id, other: d2, p: half})
	t.addEntry(d2, entry{id: id, other: d1, p: half})
}

// addEntry appends e to chunk d. Only the last chunk's region widens
// (at the end of the entry array): stage II adds only to chunks it has
// just cleared, whose regions keep a slot.
func (t *chunkTable) addEntry(d int64, e entry) {
	t.grow(d)
	if t.find(d, e.id) >= 0 {
		panic(fmt.Sprintf("core: duplicate association of object %d with chunk %d", e.id, d))
	}
	end := t.at[d] + t.n[d]
	if end == t.at[d+1] {
		if d != int64(len(t.n))-1 {
			panic(fmt.Sprintf("core: chunk %d is full and not the last of %d", d, len(t.n)))
		}
		t.ents = append(t.ents, entry{})
		t.at[d+1]++
	}
	t.ents[end] = e
	t.n[d]++
	t.inE[d] = false // an associated chunk is never a middle chunk
}

// removeEntry drops the association of object id with chunk d.
func (t *chunkTable) removeEntry(id heap.ObjectID, d int64) {
	i := t.find(d, id)
	if i < 0 {
		panic(fmt.Sprintf("core: object %d not associated with chunk %d", id, d))
	}
	set := t.set(d)
	set[i] = set[len(set)-1]
	t.n[d]--
}

// doubleStep advances to step+1 in place: each pair of adjacent chunks
// becomes one chunk (O_D = O_D1 ∪ O_D2, line 12), halves of the same
// object that meet merge into a full entry, and E is cleared. The
// merged sets are packed down the entry array, each region trimmed to
// its entries (one slot if empty); no entry moves up, so packing never
// overwrites one not yet read.
func (t *chunkTable) doubleStep() {
	t.step++
	m := (len(t.n) + 1) / 2
	w := int32(0)
	for k := 0; k < m; k++ {
		lo, hi := 2*k, 2*k+1
		base := w
		for i := t.at[lo]; i < t.at[lo]+t.n[lo]; i++ {
			e := t.ents[i]
			switch {
			case e.p == half && e.other == int64(hi):
				e.p, e.other = full, -1
			case e.other >= 0:
				e.other >>= 1
			}
			t.ents[w] = e
			w++
		}
		if hi < len(t.n) {
			for i := t.at[hi]; i < t.at[hi]+t.n[hi]; i++ {
				e := t.ents[i]
				if e.p == half && e.other == int64(lo) {
					continue // merged into its partner above
				}
				if e.other >= 0 {
					e.other >>= 1
				}
				t.ents[w] = e
				w++
			}
		}
		t.at[k], t.n[k] = base, w-base
		w = max(w, base+1)
	}
	t.at[m] = w
	t.ents, t.at, t.n, t.inE = t.ents[:w], t.at[:m+1], t.n[:m], t.inE[:m]
	clear(t.inE)
}

// placeNew implements the association updates of line 14: the newly
// allocated object id fully covers chunks d1, d2, d3; its first half is
// associated with d1, its second half with d3, and d2 becomes a middle
// chunk in E. Any previous associations of those chunks are discarded —
// their objects must all be dead (the chunks had to be physically
// empty for the placement), which is asserted. A discarded half's
// partner stays behind as a lone half.
func (t *chunkTable) placeNew(id heap.ObjectID, d1, d2, d3 int64) {
	cs := t.chunkSize()
	t.grow(d3)
	for _, d := range [3]int64{d1, d2, d3} {
		if t.inE[d] {
			t.reusedEU += cs
		} else if s := t.sum(d); s > 0 {
			t.reusedDeadU += min(s<<uint(t.ell), cs)
		}
		for _, e := range t.set(d) {
			if t.objs.at(e.id).live {
				panic(fmt.Sprintf("core: live object %d still associated with overwritten chunk %d", e.id, d))
			}
			if e.p != half {
				continue
			}
			if i := t.find(e.other, e.id); i >= 0 {
				t.set(e.other)[i].other = -1
			}
		}
		t.n[d] = 0
		t.inE[d] = false
	}
	t.associateHalves(id, d1, d3)
	t.inE[d2] = true
}

// coveredChunks returns the indices of the chunks fully covered by
// span s at the current step, in address order. The returned slice
// aliases a scratch buffer valid until the next call.
func (t *chunkTable) coveredChunks(s heap.Span) []int64 {
	cs := t.chunkSize()
	first := word.AlignUp(s.Addr, cs) / cs
	out := t.coverBuf[:0]
	for k := first; (k+1)*cs <= s.End(); k++ {
		out = append(out, k)
	}
	t.coverBuf = out
	return out
}

// trim implements line 13 for every chunk: free as many objects from
// O_D as possible while Σ_{o∈O_D}|o| stays at least 2^(step−ℓ). When a
// half is freed, the object's association transfers to the chunk
// holding the other half, and that chunk is re-evaluated. Chunks whose
// sum is already at or below the threshold are left alone (freeing
// from them would let the potential function drop, breaking Claim
// 4.16). The IDs of physically freed objects are appended to frees.
func (t *chunkTable) trim(frees []heap.ObjectID) []heap.ObjectID {
	threshold := word.Pow2(t.step - t.ell)
	t.queued = append(t.queued[:0], make([]bool, len(t.n))...)
	work := t.work[:0]
	for d, n := range t.n {
		if n > 0 {
			work = append(work, int64(d))
			t.queued[d] = true
		}
	}
	for i := 0; i < len(work); i++ {
		d := work[i]
		t.queued[d] = false
		frees, work = t.trimChunk(d, threshold, frees, work)
	}
	t.work = work
	return frees
}

// trimChunk processes one chunk, appending the chunks that received a
// transferred half (and need re-evaluation) to work.
func (t *chunkTable) trimChunk(d int64, threshold word.Size, frees []heap.ObjectID, work []int64) ([]heap.ObjectID, []int64) {
	// Deterministic order: largest contribution first, ties by id.
	entries := append(t.trimBuf[:0], t.set(d)...)
	t.trimBuf = entries
	if len(entries) == 0 {
		return frees, work
	}
	sum := word.Size(0)
	for _, e := range entries {
		sum += t.contribution(e)
	}
	slices.SortFunc(entries, func(a, b entry) int {
		ca, cb := t.contribution(a), t.contribution(b)
		switch {
		case ca != cb:
			if ca > cb {
				return -1
			}
			return 1
		case a.id < b.id:
			return -1
		default:
			return 1
		}
	})
	for _, e := range entries {
		o := t.objs.at(e.id)
		if !o.live {
			continue // dead entries hold density but cannot be freed
		}
		c := t.contribution(e)
		if sum-c < threshold {
			// Freeing would drop the chunk below the density floor
			// 2^-ℓ; line 13 keeps it (this is what makes evacuation
			// unprofitable for the manager and keeps u(t) from ever
			// decreasing, Claim 4.16).
			continue
		}
		sum -= c
		if e.p == full {
			t.removeEntry(e.id, d)
			o.live = false
			frees = append(frees, e.id)
			continue
		}
		// Freeing a half: transfer the object to the chunk holding the
		// other half and re-evaluate that chunk.
		i := t.find(e.other, e.id)
		if i < 0 {
			panic(fmt.Sprintf("core: half object %d has no other chunk", e.id))
		}
		t.removeEntry(e.id, d)
		t.set(e.other)[i] = entry{id: e.id, other: -1, p: full}
		if !t.queued[e.other] {
			t.queued[e.other] = true
			work = append(work, e.other)
		}
	}
	return frees, work
}

// freeAll frees every live associated object outright, dropping all
// its associations, and appends the freed IDs to frees (the
// DisableDensity ablation).
func (t *chunkTable) freeAll(frees []heap.ObjectID) []heap.ObjectID {
	for d := range t.n {
		for i := 0; i < len(t.set(int64(d))); {
			e := t.set(int64(d))[i]
			o := t.objs.at(e.id)
			if !o.live {
				i++
				continue
			}
			o.live = false
			frees = append(frees, e.id)
			t.removeEntry(e.id, int64(d))
			if e.p == half && t.find(e.other, e.id) >= 0 {
				t.removeEntry(e.id, e.other)
			}
		}
	}
	return frees
}

// potential computes the paper's potential function u(t) restricted to
// the current partition: Σ_D u_D(t) − n/4, where u_D = 2^i for middle
// chunks in E and min(2^ℓ·Σ_{o∈O_D}|o|, 2^i) otherwise (Definitions
// 4.3 and 4.4). It lower-bounds the heap size the manager has used.
func (t *chunkTable) potential(n word.Size) word.Size {
	cs := t.chunkSize()
	var u word.Size
	for d := range t.n {
		u += min(t.sum(int64(d))<<uint(t.ell), cs)
		if t.inE[d] {
			u += cs
		}
	}
	return u - n/4
}
