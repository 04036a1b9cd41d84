// Package core implements the primary contribution of Cohen & Petrank
// (PLDI 2013): the adversarial program P_F (Algorithm 1) that forces
// every c-partial memory manager to use a heap of at least M·h words
// (Theorem 1, computed in internal/bounds), together with the
// association and potential-function machinery of Section 4.
//
// P_F runs in two stages:
//
//   - Stage I (steps 0..ℓ) is Robson's bad program adapted to
//     compaction with ghost objects: any object the manager moves is
//     freed immediately but continues to be counted at its original
//     address, so the de-allocation decisions match the compaction-free
//     execution of the reduction theorem (Claim 4.8). Steps ℓ+1..2ℓ−1
//     are null steps.
//   - Stage II (steps 2ℓ..log2(n)−2) maintains, for every aligned
//     chunk of size 2^i, an association set O_D with density at least
//     2^-ℓ > 1/c, so evacuating a chunk always costs the manager more
//     compaction budget than the allocation that reuses it refunds. At
//     each step it frees as much associated space as the density floor
//     allows (line 13) and allocates ⌊x·M·2^{-i-2}⌋ objects of size
//     2^{i+2} (line 14), each claiming three fresh chunks.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"compaction/internal/adversary"
	"compaction/internal/bounds"
	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// Options configure P_F. The zero value selects the paper's algorithm
// with the bound-maximizing ℓ; the Disable* switches implement the
// ablations studied in the benchmarks.
type Options struct {
	// Ell fixes the density exponent ℓ; 0 picks the ℓ that maximizes
	// the Theorem 1 bound for the run's (M, n, c).
	Ell int
	// DisableStage1 skips Robson's first stage (ablation).
	DisableStage1 bool
	// DisableDensity makes stage II free greedily with no density
	// floor (ablation: chunks become cheap to evacuate).
	DisableDensity bool
	// DisableGhosts makes stage I forget compacted objects instead of
	// keeping them as ghosts (ablation: compaction perturbs Robson's
	// offsets).
	DisableGhosts bool
}

// PF is the paper's adversary program.
type PF struct {
	opts Options

	// Parameters resolved at the first Step call.
	initialized bool
	m, n        word.Size
	c           int64
	ell         int
	bigL        int     // log2(n)
	x           float64 // per-step allocation fraction of line 14
	hEll        float64 // Theorem 1 bound at the chosen ℓ

	round  int
	f      word.Addr // Robson offset f_i
	objs   objectTable
	liveW  word.Size // live words (engine ground truth mirror)
	table  *chunkTable
	stage2 bool

	// Reused per-step scratch buffers. The engine consumes frees within
	// the step and the trace recorder copies allocs, so both may be
	// overwritten by the next step. Stage I sizes them for M unit
	// objects and lets them go after its last step; stage II's steps
	// are far smaller.
	allocBuf []word.Size
	freeBuf  []heap.ObjectID
	ordBuf   []heap.ObjectID

	// uFirst is the potential right after the line-9 association, the
	// quantity Lemma 4.5 bounds from below (exposed for validation).
	uFirst word.Size
}

var _ sim.Program = (*PF)(nil)

// NewPF builds the adversary.
func NewPF(opts Options) *PF {
	return &PF{opts: opts}
}

// fillAllocs returns a reused buffer holding count copies of size.
func (p *PF) fillAllocs(count, size word.Size) []word.Size {
	buf := p.allocBuf[:0]
	for i := word.Size(0); i < count; i++ {
		buf = append(buf, size)
	}
	p.allocBuf = buf
	return buf
}

// Name implements sim.Program.
func (p *PF) Name() string { return "pf" }

// Ell returns the density exponent in use (after the first step).
func (p *PF) Ell() int { return p.ell }

// TargetH returns the Theorem 1 waste factor h(M, n, c, ℓ) the run is
// designed to force (after the first step).
func (p *PF) TargetH() float64 { return p.hEll }

// Rounds returns the total number of engine rounds P_F uses for a
// given maximum object size: steps 0..log2(n)−2.
func Rounds(n word.Size) int { return word.Log2(n) - 1 }

func (p *PF) init(v *sim.View) error {
	p.m, p.n, p.c = v.Config.M, v.Config.N, v.Config.C
	p.bigL = word.Log2(p.n)
	if !v.Config.Pow2Only {
		return fmt.Errorf("core: P_F requires a P2 run (Pow2Only)")
	}
	params := bounds.Params{M: p.m, N: p.n, C: p.c}
	if err := params.Validate(); err != nil {
		return fmt.Errorf("core: %v", err)
	}
	if p.opts.Ell > 0 {
		p.ell = p.opts.Ell
		h, err := bounds.Theorem1Ell(params, p.ell)
		if err != nil {
			return err
		}
		p.hEll = h
	} else {
		h, ell, err := bounds.Theorem1(params)
		if err != nil {
			return err
		}
		if ell == 0 {
			return fmt.Errorf("core: no admissible ℓ for M=%d n=%d c=%d", p.m, p.n, p.c)
		}
		p.ell, p.hEll = ell, h
	}
	p.x = (1 - p.hEll/float64(word.Pow2(p.ell))) / float64(p.ell+1)
	if p.x <= 0 {
		return fmt.Errorf("core: non-positive allocation fraction x=%g (h=%g, ℓ=%d)", p.x, p.hEll, p.ell)
	}
	if !p.opts.DisableStage1 {
		// Pre-size the per-run buffers to their stage-I peaks (step 0
		// allocates M unit objects) so the hot loop never re-grows them.
		p.allocBuf = make([]word.Size, 0, p.m)
		p.freeBuf = make([]heap.ObjectID, 0, p.m/2+1)
		p.ordBuf = make([]heap.ObjectID, 0, p.m)
	}
	p.initialized = true
	return nil
}

// Step implements sim.Program, mapping engine rounds to the steps of
// Algorithm 1: round r is step r; stage I covers steps 0..ℓ, steps
// ℓ+1..2ℓ−1 are null, and stage II covers steps 2ℓ..log2(n)−2.
func (p *PF) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	if !p.initialized {
		if err := p.init(v); err != nil {
			panic(err)
		}
	}
	step := p.round
	p.round++
	last := p.bigL - 2
	done := step >= last
	switch {
	case step < 2*p.ell:
		if p.opts.DisableStage1 {
			return nil, nil, done
		}
		frees, allocs := p.stage1(step)
		return frees, allocs, done
	default:
		if !p.stage2 {
			p.enterStage2()
		}
		if p.table.step < step {
			p.table.doubleStep()
			if p.table.step != step {
				panic(fmt.Sprintf("core: step skew: table at %d, program at %d", p.table.step, step))
			}
		}
		frees := p.stage2Frees()
		allocs := p.stage2Allocs(step)
		return frees, allocs, done
	}
}

// stage1 runs step i of the Robson-with-ghosts stage.
func (p *PF) stage1(step int) ([]heap.ObjectID, []word.Size) {
	switch {
	case step == 0:
		p.f = 0
		return nil, p.fillAllocs(p.m, 1)
	case step <= p.ell:
		align := word.Pow2(step)
		ord := p.stage1Order()
		if alt := p.f + align/2; p.wastePerOffset(ord, alt, align) > p.wastePerOffset(ord, p.f, align) {
			p.f = alt // ties keep f, as adversary.ChooseOffset does
		}
		frees := p.freeBuf[:0]
		var counted word.Size // live + ghost words that remain
		for _, id := range ord {
			o := p.objs.at(id)
			if adversary.Occupying(o.span(), p.f, align) {
				counted += o.size()
				continue
			}
			if o.live {
				frees = append(frees, id)
				p.liveW -= o.size()
			}
			// Non-occupying ghosts disappear from consideration.
			*o = object{}
		}
		p.freeBuf = frees
		count := (p.m - counted) / align
		allocs := p.fillAllocs(count, align)
		if step == p.ell {
			// Stage I's last step: the engine still holds this round's
			// slices, but the M-sized buffers are not needed again.
			p.allocBuf, p.freeBuf, p.ordBuf = nil, nil, nil
		}
		return frees, allocs
	default:
		return nil, nil // null steps ℓ+1..2ℓ−1
	}
}

// stage1Order returns the IDs of the live objects and ghosts in
// (address, ID) order — a ghost may share its address with a live
// object — reusing a scratch buffer.
func (p *PF) stage1Order() []heap.ObjectID {
	ord := p.ordBuf[:0]
	p.objs.each(func(id heap.ObjectID, o *object) {
		if o.live || o.ghost {
			ord = append(ord, id)
		}
	})
	slices.SortFunc(ord, func(a, b heap.ObjectID) int {
		if c := cmp.Compare(p.objs.at(a).addr, p.objs.at(b).addr); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	p.ordBuf = ord
	return ord
}

// wastePerOffset is adversary.WastePerOffset over the records in ord:
// the waste Σ (align − |o|) of the f-occupying objects that Robson's
// offset choice maximizes.
func (p *PF) wastePerOffset(ord []heap.ObjectID, f word.Addr, align word.Size) word.Size {
	var sum word.Size
	for _, id := range ord {
		if o := p.objs.at(id); adversary.Occupying(o.span(), f, align) {
			sum += align - o.size()
		}
	}
	return sum
}

// enterStage2 performs line 9: associate every remaining live object
// with the chunk (size 2^{2ℓ−1}) containing its f_ℓ-occupying word.
//
// Ghosts are dropped here, not associated: Definition 4.1 says ghost
// objects "are no longer considered by PF in subsequent steps". This
// matters for the bound — if ghosts entered O_D as dead mass, line 13
// could free the live objects colocated with them and hand the manager
// reusable chunks that were never paid for with stage-II compaction,
// breaking Proposition 4.19 (we verified exactly this leak against the
// threshold evacuator before fixing it; see TestLemmaAccounting).
func (p *PF) enterStage2() {
	p.stage2 = true
	start := 2*p.ell - 1
	if p.opts.DisableStage1 || start < 0 {
		p.table = newChunkTable(2*p.ell, p.ell, &p.objs)
		return
	}
	p.table = newChunkTable(start, p.ell, &p.objs)
	alignL := word.Pow2(p.ell)
	cs := p.table.chunkSize()
	p.table.associateAll(func(add func(heap.ObjectID, int64)) {
		p.objs.each(func(id heap.ObjectID, o *object) {
			switch {
			case o.ghost:
				*o = object{} // ghosts disappear at the stage boundary
			case o.live:
				if !adversary.Occupying(o.span(), p.f, alignL) {
					// Everything surviving stage I is f_ℓ-occupying by
					// construction; defensive check.
					panic(fmt.Sprintf("core: stage-I survivor %d is not f_ℓ-occupying", id))
				}
				add(id, adversary.OccupyingWord(o.span(), p.f, alignL)/cs)
			}
		})
	})
	p.uFirst = p.table.potential(p.n)
}

// UFirst returns u(t_first), the potential right after the line-9
// association (0 before stage II).
func (p *PF) UFirst() word.Size { return p.uFirst }

// stage2Frees runs line 13 (the density-preserving trim).
func (p *PF) stage2Frees() []heap.ObjectID {
	var frees []heap.ObjectID
	if p.opts.DisableDensity {
		// Ablation: free every live associated object outright.
		frees = p.table.freeAll(p.freeBuf[:0])
		slices.Sort(frees)
	} else {
		frees = p.table.trim(p.freeBuf[:0])
	}
	for _, id := range frees {
		p.liveW -= p.objs.at(id).size()
	}
	p.freeBuf = frees
	return frees
}

// stage2Allocs runs line 14: ⌊x·M·2^{−i−2}⌋ objects of size 2^{i+2},
// capped by the M-bound.
func (p *PF) stage2Allocs(step int) []word.Size {
	size := word.Pow2(step + 2)
	count := word.Size(p.x * float64(p.m) / float64(size))
	if maxByM := (p.m - p.liveW) / size; count > maxByM {
		count = maxByM
	}
	return p.fillAllocs(count, size)
}

// Placed implements sim.Program.
func (p *PF) Placed(id heap.ObjectID, s heap.Span) {
	p.objs.place(id, s)
	p.liveW += s.Size
	if !p.stage2 {
		return
	}
	covered := p.table.coveredChunks(s)
	if len(covered) < 3 {
		panic(fmt.Sprintf("core: stage-II object %v covers %d chunks, need 3", s, len(covered)))
	}
	p.table.placeNew(id, covered[0], covered[1], covered[2])
}

// Moved implements sim.Program: compacted objects are freed
// immediately. In stage I they persist as ghosts at their original
// address; in stage II their associations persist as dead entries.
func (p *PF) Moved(id heap.ObjectID, from, _ heap.Span) bool {
	o := p.objs.at(id)
	if o == nil || !o.live {
		panic(fmt.Sprintf("core: move of object %d, which P_F does not hold live", id))
	}
	o.live = false
	p.liveW -= o.size()
	if !p.stage2 {
		if p.opts.DisableGhosts {
			*o = object{}
		} else {
			o.ghost = true
			o.addr = from.Addr // counted at its pre-move address
		}
	}
	return true
}

// Potential returns the paper's potential function u(t) over the
// current stage-II partition, a certified lower bound on the heap size
// used so far. It returns 0 before stage II begins.
func (p *PF) Potential() word.Size {
	if !p.stage2 {
		return 0
	}
	return p.table.potential(p.n)
}
