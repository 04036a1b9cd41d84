// Package profile provides a small declarative format for describing
// application allocation behaviour — phases with target live fractions,
// churn rates and weighted size distributions — and compiles it into a
// runnable sim.Program. Profiles model the "benchmark suite" side of
// the paper's story: realistic traffic on which memory managers do far
// better than the adversarial worst case.
//
// A profile is JSON:
//
//	{
//	  "name": "server",
//	  "phases": [
//	    {"rounds": 50, "live": 0.7, "churn": 0.4,
//	     "sizes": [{"words": 2, "weight": 6}, {"words": 16, "weight": 1}]}
//	  ]
//	}
//
// Weights are relative; sizes are rounded up to powers of two when the
// run is declared P2.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// SizeClass is one weighted object size.
type SizeClass struct {
	Words  word.Size `json:"words"`
	Weight float64   `json:"weight"`
}

// Phase is one behavioural phase of the profile.
type Phase struct {
	// Rounds is how many engine rounds the phase lasts.
	Rounds int `json:"rounds"`
	// Live is the target live space as a fraction of M (0 < Live <= 1).
	Live float64 `json:"live"`
	// Churn is the fraction of live objects freed each round.
	Churn float64 `json:"churn"`
	// Sizes is the weighted size distribution.
	Sizes []SizeClass `json:"sizes"`
}

// Profile is a named sequence of phases.
type Profile struct {
	Name   string  `json:"name"`
	Phases []Phase `json:"phases"`
}

// Parse reads a JSON profile and validates it.
func Parse(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate checks the profile for semantic errors.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("profile: missing name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("profile %s: no phases", p.Name)
	}
	for i, ph := range p.Phases {
		if ph.Rounds <= 0 {
			return fmt.Errorf("profile %s phase %d: rounds must be positive", p.Name, i)
		}
		if ph.Live <= 0 || ph.Live > 1 {
			return fmt.Errorf("profile %s phase %d: live fraction %v outside (0,1]", p.Name, i, ph.Live)
		}
		if ph.Churn < 0 || ph.Churn > 1 {
			return fmt.Errorf("profile %s phase %d: churn %v outside [0,1]", p.Name, i, ph.Churn)
		}
		if len(ph.Sizes) == 0 {
			return fmt.Errorf("profile %s phase %d: no size classes", p.Name, i)
		}
		var total float64
		for j, sc := range ph.Sizes {
			if sc.Words <= 0 {
				return fmt.Errorf("profile %s phase %d size %d: words must be positive", p.Name, i, j)
			}
			if sc.Weight <= 0 {
				return fmt.Errorf("profile %s phase %d size %d: weight must be positive", p.Name, i, j)
			}
			total += sc.Weight
		}
		if total <= 0 {
			return fmt.Errorf("profile %s phase %d: zero total weight", p.Name, i)
		}
	}
	return nil
}

// TotalRounds returns the run length of the profile.
func (p *Profile) TotalRounds() int {
	total := 0
	for _, ph := range p.Phases {
		total += ph.Rounds
	}
	return total
}

// Program compiles the profile into a deterministic sim.Program.
func (p *Profile) Program(seed int64) sim.Program {
	return &runner{prof: p, rng: rand.New(rand.NewSource(seed))}
}

// runner runs a profile. It keeps only the IDs of its live objects:
// their sizes are the engine's, read through the View.
type runner struct {
	prof  *Profile
	rng   *rand.Rand
	round int
	live  []heap.ObjectID
	// frees and allocs hold the step's result, reused from round to
	// round: the engine consumes them before the next Step.
	frees  []heap.ObjectID
	allocs []word.Size
}

var _ sim.Program = (*runner)(nil)

func (r *runner) Name() string { return "profile:" + r.prof.Name }

// phaseAt maps a round index to its phase.
func (r *runner) phaseAt(round int) *Phase {
	for i := range r.prof.Phases {
		if round < r.prof.Phases[i].Rounds {
			return &r.prof.Phases[i]
		}
		round -= r.prof.Phases[i].Rounds
	}
	return nil
}

func (r *runner) drawSize(ph *Phase, n word.Size, pow2 bool) word.Size {
	var total float64
	for _, sc := range ph.Sizes {
		total += sc.Weight
	}
	x := r.rng.Float64() * total
	s := ph.Sizes[len(ph.Sizes)-1].Words
	for _, sc := range ph.Sizes {
		if x < sc.Weight {
			s = sc.Words
			break
		}
		x -= sc.Weight
	}
	if pow2 {
		s = word.RoundUpPow2(s)
	}
	if s > n {
		s = word.RoundDownPow2(n)
		if !pow2 {
			s = n
		}
	}
	return s
}

func (r *runner) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	ph := r.phaseAt(r.round)
	defer func() { r.round++ }()
	if ph == nil {
		return nil, nil, true
	}
	// Churn.
	r.frees, r.allocs = r.frees[:0], r.allocs[:0]
	liveW := v.Live
	if ph.Churn > 0 && len(r.live) > 0 {
		toFree := int(float64(len(r.live)) * ph.Churn)
		for k := 0; k < toFree; k++ {
			i := r.rng.Intn(len(r.live))
			id := r.live[i]
			r.live[i] = r.live[len(r.live)-1]
			r.live = r.live[:len(r.live)-1]
			r.frees = append(r.frees, id)
			s, _ := v.Lookup(id)
			liveW -= s.Size
		}
	}
	// Refill toward the phase's live target.
	target := word.Size(float64(v.Config.M) * ph.Live)
	for liveW < target {
		s := r.drawSize(ph, v.Config.N, v.Config.Pow2Only)
		if liveW+s > v.Config.M {
			break
		}
		r.allocs = append(r.allocs, s)
		liveW += s
	}
	return r.frees, r.allocs, r.round+1 >= r.prof.TotalRounds()
}

func (r *runner) Placed(id heap.ObjectID, _ heap.Span) {
	r.live = append(r.live, id)
}

func (r *runner) Moved(heap.ObjectID, heap.Span, heap.Span) bool { return false }
