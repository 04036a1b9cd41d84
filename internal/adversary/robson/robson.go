// Package robson implements Robson's classical bad program P_R
// (Algorithm 2 of Cohen & Petrank 2013, after Robson, JACM 1971/74):
// the adversary that forces every compaction-free memory manager on
// P2(M, n) programs to use a heap of at least
//
//	M·(½·log2(n) + 1) − n + 1
//
// words. It works in steps i = 0..log2(n): step 0 fills the heap with
// M unit objects; step i picks the offset f_i ∈ {f_{i−1},
// f_{i−1}+2^{i−1}} that maximizes the wasted space Σ(2^i − |o|) over
// f_i-occupying objects, frees every non-occupying object, and
// allocates as many 2^i-sized objects as the M-bound allows.
//
// Against a manager that does move objects, this standalone P_R simply
// tracks the new addresses (the ghost-object machinery that preserves
// Robson's guarantees under compaction belongs to P_F's first stage in
// internal/core).
package robson

import (
	"fmt"
	"sort"

	"compaction/internal/adversary"
	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// Program is Robson's adversary.
type Program struct {
	steps int // last step index; sizes reach 2^steps
	f     word.Addr
	step  int
	objs  map[heap.ObjectID]heap.Span
}

var _ sim.Program = (*Program)(nil)

// New returns P_R running steps 0..steps. If steps <= 0, the run is
// sized at Reset time from the engine config (steps = log2 n).
func New(steps int) *Program {
	return &Program{steps: steps}
}

// Name implements sim.Program.
func (p *Program) Name() string { return "robson" }

// Step implements sim.Program.
func (p *Program) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	if p.objs == nil {
		p.objs = make(map[heap.ObjectID]heap.Span)
	}
	steps := p.steps
	if steps <= 0 {
		steps = word.Log2(v.Config.N)
	}
	defer func() { p.step++ }()
	switch {
	case p.step == 0:
		p.f = 0
		allocs := make([]word.Size, v.Config.M)
		for i := range allocs {
			allocs[i] = 1
		}
		return nil, allocs, false
	case p.step <= steps:
		i := p.step
		align := word.Pow2(i)
		tracked := p.tracked()
		p.f = adversary.ChooseOffset(tracked, p.f, align)
		var frees []heap.ObjectID
		var liveWords word.Size
		for _, o := range tracked {
			if adversary.Occupying(o.Span, p.f, align) {
				liveWords += o.Span.Size
			} else {
				frees = append(frees, o.ID)
				delete(p.objs, o.ID)
			}
		}
		count := (v.Config.M - liveWords) / align
		allocs := make([]word.Size, count)
		for k := range allocs {
			allocs[k] = align
		}
		return frees, allocs, p.step == steps
	default:
		return nil, nil, true
	}
}

// tracked returns the live objects in deterministic (address) order.
func (p *Program) tracked() []adversary.Tracked {
	out := make([]adversary.Tracked, 0, len(p.objs))
	for id, s := range p.objs {
		out = append(out, adversary.Tracked{ID: id, Span: s})
	}
	// Address order for determinism of free sequences.
	sort.Slice(out, func(i, j int) bool { return out[i].Span.Addr < out[j].Span.Addr })
	return out
}

// Placed implements sim.Program.
func (p *Program) Placed(id heap.ObjectID, s heap.Span) {
	if p.objs == nil {
		p.objs = make(map[heap.ObjectID]heap.Span)
	}
	p.objs[id] = s
}

// Moved implements sim.Program: the standalone Robson program keeps
// moved objects and tracks their new location.
func (p *Program) Moved(id heap.ObjectID, _, to heap.Span) bool {
	p.objs[id] = to
	return false
}

// LowerBoundWords is Robson's tight lower bound on the heap any
// non-moving manager needs against P_R: M(½·log2 n + 1) − n + 1.
func LowerBoundWords(m, n word.Size) word.Size {
	L := word.Size(word.Log2(n))
	return m*(L+2)/2 - n + 1
}

// String describes the program configuration.
func (p *Program) String() string {
	return fmt.Sprintf("robson{steps=%d}", p.steps)
}
