// Package workload provides synthetic (non-adversarial) programs for
// exercising the memory managers: randomized allocate/free traffic
// with configurable size distributions and phase shifts. These stand
// in for the "suite of benchmarks" the paper contrasts with its
// worst-case adversaries — real programs on which managers usually do
// much better than the lower bound.
package workload

import (
	"fmt"
	"math/rand"

	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// SizeDist selects the object-size distribution.
type SizeDist int

// Supported size distributions.
const (
	// UniformPow2 draws sizes uniformly from the powers of two in [1, n].
	UniformPow2 SizeDist = iota
	// Uniform draws sizes uniformly from [1, n].
	Uniform
	// Geometric favours small objects: size 2^k with probability ~2^-k,
	// capped at n. This resembles real heap-size histograms.
	Geometric
)

func (d SizeDist) String() string {
	switch d {
	case UniformPow2:
		return "uniform-pow2"
	case Uniform:
		return "uniform"
	case Geometric:
		return "geometric"
	default:
		return "unknown"
	}
}

// Config parameterizes a random workload.
type Config struct {
	Seed   int64
	Rounds int
	// TargetLive is the live-space target as a fraction of M (0 < t <= 1).
	TargetLive float64
	// ChurnFrac is the fraction of live words freed each round.
	ChurnFrac float64
	Dist      SizeDist
	// PhaseLen > 0 switches distribution every PhaseLen rounds,
	// cycling through all distributions (a crude Markov phase model).
	PhaseLen int
}

// Random is a randomized allocate/free program implementing sim.Program.
// It keeps only the IDs of its live objects: their sizes are the
// engine's, read through the View.
type Random struct {
	cfg  Config
	rng  *rand.Rand
	live []heap.ObjectID
	step int
	// frees and allocs hold the step's result, reused from round to
	// round: the engine consumes them before the next Step.
	frees  []heap.ObjectID
	allocs []word.Size
}

var _ sim.Program = (*Random)(nil)

// NewRandom builds a random workload program.
func NewRandom(cfg Config) *Random {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 100
	}
	if cfg.TargetLive <= 0 || cfg.TargetLive > 1 {
		cfg.TargetLive = 0.8
	}
	if cfg.ChurnFrac <= 0 || cfg.ChurnFrac > 1 {
		cfg.ChurnFrac = 0.3
	}
	return &Random{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements sim.Program.
func (r *Random) Name() string {
	return fmt.Sprintf("random(%s,seed=%d)", r.cfg.Dist, r.cfg.Seed)
}

func (r *Random) dist() SizeDist {
	if r.cfg.PhaseLen > 0 {
		phase := r.step / r.cfg.PhaseLen
		return SizeDist(int(r.cfg.Dist) + phase%3)
	}
	return r.cfg.Dist
}

func (r *Random) drawSize(n word.Size, pow2Only bool) word.Size {
	d := r.dist() % 3
	if pow2Only && d == Uniform {
		d = UniformPow2
	}
	switch d {
	case UniformPow2:
		maxExp := word.Log2(n)
		return word.Pow2(r.rng.Intn(maxExp + 1))
	case Uniform:
		return 1 + r.rng.Int63n(n)
	default: // Geometric
		exp := 0
		maxExp := word.Log2(n)
		for exp < maxExp && r.rng.Intn(2) == 0 {
			exp++
		}
		return word.Pow2(exp)
	}
}

// Step implements sim.Program: free a churn fraction of live objects,
// then allocate back up toward the live target.
func (r *Random) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	defer func() { r.step++ }()
	if r.step >= r.cfg.Rounds {
		return nil, nil, true
	}
	r.frees, r.allocs = r.frees[:0], r.allocs[:0]
	liveWords := v.Live
	if len(r.live) > 0 {
		toFree := int(float64(len(r.live)) * r.cfg.ChurnFrac)
		for k := 0; k < toFree; k++ {
			i := r.rng.Intn(len(r.live))
			id := r.live[i]
			r.live[i] = r.live[len(r.live)-1]
			r.live = r.live[:len(r.live)-1]
			r.frees = append(r.frees, id)
			s, _ := v.Lookup(id)
			liveWords -= s.Size
		}
	}
	target := word.Size(float64(v.Config.M) * r.cfg.TargetLive)
	for liveWords < target {
		s := r.drawSize(v.Config.N, v.Config.Pow2Only)
		if liveWords+s > v.Config.M {
			break
		}
		r.allocs = append(r.allocs, s)
		liveWords += s
	}
	return r.frees, r.allocs, r.step+1 >= r.cfg.Rounds
}

// Placed implements sim.Program.
func (r *Random) Placed(id heap.ObjectID, _ heap.Span) {
	r.live = append(r.live, id)
}

// Moved implements sim.Program: random workloads keep moved objects.
func (r *Random) Moved(heap.ObjectID, heap.Span, heap.Span) bool { return false }

// RampDown is a two-phase program: it fills the heap with small
// objects, frees most of them, then allocates large objects — the
// classic fragmentation trap motivating compaction.
type RampDown struct {
	seed  int64
	live  []heap.ObjectID
	phase int
	rng   *rand.Rand
}

var _ sim.Program = (*RampDown)(nil)

// NewRampDown builds the two-phase fragmentation program.
func NewRampDown(seed int64) *RampDown {
	return &RampDown{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Name implements sim.Program.
func (p *RampDown) Name() string { return "rampdown" }

// Step implements sim.Program.
func (p *RampDown) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	defer func() { p.phase++ }()
	switch p.phase {
	case 0: // fill with unit objects
		count := v.Config.M
		allocs := make([]word.Size, count)
		for i := range allocs {
			allocs[i] = 1
		}
		return nil, allocs, false
	case 1: // free all but every n-th object
		stride := int(v.Config.N)
		var frees []heap.ObjectID
		for i, id := range p.live {
			if i%stride != 0 {
				frees = append(frees, id)
			}
		}
		return frees, nil, false
	default: // allocate as many n-sized objects as fit under M
		var allocs []word.Size
		budget := v.Config.M - v.Live
		for budget >= v.Config.N {
			allocs = append(allocs, v.Config.N)
			budget -= v.Config.N
		}
		return nil, allocs, true
	}
}

// Placed implements sim.Program.
func (p *RampDown) Placed(id heap.ObjectID, _ heap.Span) { p.live = append(p.live, id) }

// Moved implements sim.Program.
func (p *RampDown) Moved(heap.ObjectID, heap.Span, heap.Span) bool { return false }
