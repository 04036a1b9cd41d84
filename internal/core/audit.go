package core

import (
	"fmt"
	"slices"

	"compaction/internal/heap"
	"compaction/internal/word"
)

// Audit verifies the structural invariants of the stage-II association
// (Claim 4.15 of the paper and the E-set rules) and returns the first
// violation found. It is meant to be called from tests between rounds;
// it returns nil before stage II begins.
//
// Checked invariants:
//
//  1. the sets O_D are consistent: the chunk regions tile the entry
//     array, no chunk holds an object twice, and the two halves of an
//     object name each other's chunks;
//  2. every object is associated with exactly one chunk (full) or two
//     chunks (one half each); a single half is allowed only when its
//     partner was discarded with an overwritten chunk;
//  3. every LIVE associated object physically intersects each chunk it
//     is associated with;
//  4. chunks in E have no associated objects;
//  5. association sums are positive.
func (p *PF) Audit() error {
	if !p.stage2 {
		return nil
	}
	t := p.table
	cs := t.chunkSize()
	if len(t.at) != len(t.n)+1 || len(t.inE) != len(t.n) || t.at[0] != 0 || int(t.at[len(t.n)]) != len(t.ents) {
		return fmt.Errorf("core audit: table of %d chunks has %d region starts, %d E flags, %d entries ending at %d",
			len(t.n), len(t.at), len(t.inE), len(t.ents), t.at[len(t.at)-1])
	}

	// 1, 3, 4 & 5: chunk-side consistency.
	seen := make(map[heap.ObjectID][]int64)
	for d := range t.n {
		d := int64(d)
		if t.n[d] < 0 || t.at[d]+t.n[d] > t.at[d+1] || t.at[d+1] <= t.at[d] {
			return fmt.Errorf("core audit: chunk %d holds %d entries in region [%d,%d)", d, t.n[d], t.at[d], t.at[d+1])
		}
		set := t.set(d)
		if len(set) == 0 {
			continue
		}
		if t.inE[d] {
			return fmt.Errorf("core audit: chunk %d is in E but has %d entries", d, len(set))
		}
		var sum word.Size
		for _, e := range set {
			if ds := seen[e.id]; len(ds) > 0 && ds[len(ds)-1] == d {
				return fmt.Errorf("core audit: object %d associated with chunk %d twice", e.id, d)
			}
			seen[e.id] = append(seen[e.id], d)
			if e.p == full && e.other != -1 {
				return fmt.Errorf("core audit: full entry of object %d in chunk %d names chunk %d", e.id, d, e.other)
			}
			if e.p == half && e.other >= 0 {
				if i := t.find(e.other, e.id); i < 0 || t.set(e.other)[i].p != half || t.set(e.other)[i].other != d {
					return fmt.Errorf("core audit: half of object %d in chunk %d names chunk %d, which does not hold its other half",
						e.id, d, e.other)
				}
			}
			sum += t.contribution(e)
			if o := t.objs.at(e.id); o.live {
				chunkSpan := heap.Span{Addr: d * cs, Size: cs}
				if !o.span().Overlaps(chunkSpan) {
					return fmt.Errorf("core audit: live object %d %v associated with chunk %d %v it does not intersect (Claim 4.15)",
						e.id, o.span(), d, chunkSpan)
				}
			}
		}
		if sum <= 0 {
			return fmt.Errorf("core audit: chunk %d has non-positive association sum %d", d, sum)
		}
	}

	// 2: object-side consistency, in ID order so the violation
	// reported is the same on every run.
	ids := make([]heap.ObjectID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		ds := seen[id]
		if len(ds) > 2 {
			return fmt.Errorf("core audit: object %d associated with %d chunks", id, len(ds))
		}
		if len(ds) == 2 {
			for _, d := range ds {
				if p, _ := t.entry(d, id); p != half {
					return fmt.Errorf("core audit: object %d in two chunks but not as halves", id)
				}
			}
		}
	}
	return nil
}
