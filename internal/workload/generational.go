package workload

import (
	"math/rand"
	"slices"

	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// Generational models the weak generational hypothesis: most objects
// die young (freed within a few rounds), a small fraction is tenured
// and lives for a long time. Sizes are geometric. This is the workload
// shape real collectors are tuned for, and a useful contrast to the
// adversaries: fragmentation stays low because the short-lived
// majority frees in allocation order.
type Generational struct {
	seed       int64
	rounds     int
	tenureFrac float64 // fraction of allocations that become tenured
	nurseryTTL int     // rounds a young object lives
	tenuredTTL int     // rounds a tenured object lives

	rng   *rand.Rand
	step  int
	dueAt map[int][]heap.ObjectID // expiry round -> objects
	// allocs holds the step's allocations, reused from round to
	// round: the engine consumes them before the next Step.
	allocs []word.Size
	// pendingTenure marks how many of the allocations issued this
	// round should be tenured; consumed in Placed.
	pendingTenure int
}

var _ sim.Program = (*Generational)(nil)

// NewGenerational builds a generational workload. rounds <= 0 selects
// 120 rounds.
func NewGenerational(seed int64, rounds int) *Generational {
	if rounds <= 0 {
		rounds = 120
	}
	return &Generational{
		seed:       seed,
		rounds:     rounds,
		tenureFrac: 0.08,
		nurseryTTL: 2,
		tenuredTTL: 40,
		rng:        rand.New(rand.NewSource(seed)),
		dueAt:      make(map[int][]heap.ObjectID),
	}
}

// Name implements sim.Program.
func (g *Generational) Name() string { return "generational" }

// Step implements sim.Program.
func (g *Generational) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	defer func() { g.step++ }()
	if g.step >= g.rounds {
		// Final round: free everything still scheduled, in ID order so
		// the run's event stream does not follow map order.
		var frees []heap.ObjectID
		for _, ids := range g.dueAt {
			frees = append(frees, ids...)
		}
		slices.Sort(frees)
		g.dueAt = make(map[int][]heap.ObjectID)
		return frees, nil, true
	}
	frees := g.dueAt[g.step]
	delete(g.dueAt, g.step)
	live := v.Live
	for _, id := range frees {
		s, _ := v.Lookup(id)
		live -= s.Size
	}
	// Fill the nursery: allocate up to 70% of M.
	target := v.Config.M * 7 / 10
	g.allocs = g.allocs[:0]
	for live < target {
		s := g.drawSize(v.Config.N)
		if live+s > v.Config.M {
			break
		}
		g.allocs = append(g.allocs, s)
		live += s
		if g.rng.Float64() < g.tenureFrac {
			g.pendingTenure++
		}
	}
	return frees, g.allocs, false
}

func (g *Generational) drawSize(n word.Size) word.Size {
	exp, maxExp := 0, word.Log2(n)
	for exp < maxExp && g.rng.Intn(2) == 0 {
		exp++
	}
	return word.Pow2(exp)
}

// Placed implements sim.Program, scheduling the object's death.
func (g *Generational) Placed(id heap.ObjectID, _ heap.Span) {
	ttl := g.nurseryTTL
	if g.pendingTenure > 0 {
		g.pendingTenure--
		ttl = g.tenuredTTL
	}
	due := g.step + ttl
	g.dueAt[due] = append(g.dueAt[due], id)
}

// Moved implements sim.Program.
func (g *Generational) Moved(heap.ObjectID, heap.Span, heap.Span) bool { return false }

// Sawtooth repeatedly fills the heap to M and then releases almost
// everything, the classic arena/phase pattern (request processing,
// compilers between passes). Peak extents are set by the fill phases;
// how much of the trough a manager can reuse depends on its policy.
type Sawtooth struct {
	seed   int64
	cycles int
	rng    *rand.Rand
	step   int
	live   []heap.ObjectID
	// frees and allocs hold the step's result, reused from round to
	// round: the engine consumes them before the next Step.
	frees  []heap.ObjectID
	allocs []word.Size
}

var _ sim.Program = (*Sawtooth)(nil)

// NewSawtooth builds a sawtooth workload with the given number of
// fill/release cycles (<= 0 selects 8).
func NewSawtooth(seed int64, cycles int) *Sawtooth {
	if cycles <= 0 {
		cycles = 8
	}
	return &Sawtooth{seed: seed, cycles: cycles, rng: rand.New(rand.NewSource(seed))}
}

// Name implements sim.Program.
func (p *Sawtooth) Name() string { return "sawtooth" }

// Step implements sim.Program: even steps fill, odd steps release 90%.
func (p *Sawtooth) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	defer func() { p.step++ }()
	done := p.step >= 2*p.cycles-1
	if p.step%2 == 0 {
		liveWords := v.Live
		p.allocs = p.allocs[:0]
		for {
			exp := p.rng.Intn(word.Log2(v.Config.N) + 1)
			s := word.Pow2(exp)
			if liveWords+s > v.Config.M {
				break
			}
			p.allocs = append(p.allocs, s)
			liveWords += s
		}
		return nil, p.allocs, done
	}
	// Release phase: free a random 90%, keeping the rest in place.
	p.frees = p.frees[:0]
	kept := p.live[:0]
	for _, id := range p.live {
		if p.rng.Float64() < 0.9 {
			p.frees = append(p.frees, id)
		} else {
			kept = append(kept, id)
		}
	}
	p.live = kept
	return p.frees, nil, done
}

// Placed implements sim.Program.
func (p *Sawtooth) Placed(id heap.ObjectID, _ heap.Span) {
	p.live = append(p.live, id)
}

// Moved implements sim.Program.
func (p *Sawtooth) Moved(heap.ObjectID, heap.Span, heap.Span) bool { return false }
