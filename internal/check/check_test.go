package check

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"compaction/internal/budget"
	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"

	_ "compaction/internal/mm/fits"
	_ "compaction/internal/mm/threshold"
)

// stubManager places objects wherever its script says, no questions
// asked — the tool for aiming specific invariant violations at the
// referee.
type stubManager struct {
	next  []word.Addr
	moves []struct {
		id heap.ObjectID
		to word.Addr
	}
}

func (s *stubManager) Name() string                  { return "stub" }
func (s *stubManager) Reset(sim.Config)              {}
func (s *stubManager) Free(heap.ObjectID, heap.Span) {}
func (s *stubManager) Allocate(id heap.ObjectID, size word.Size, mv sim.Mover) (word.Addr, error) {
	for _, m := range s.moves {
		mv.Move(m.id, m.to)
	}
	s.moves = nil
	a := s.next[0]
	s.next = s.next[1:]
	return a, nil
}

// permissiveMover approves every move without any engine-side
// validation, simulating a broken engine so the referee's independent
// checks are the only line of defense.
type permissiveMover struct {
	spans map[heap.ObjectID]heap.Span
}

func (p *permissiveMover) Move(id heap.ObjectID, to word.Addr) (bool, error) {
	s := p.spans[id]
	p.spans[id] = heap.Span{Addr: to, Size: s.Size}
	return false, nil
}
func (p *permissiveMover) Remaining() word.Size { return 1 << 40 }
func (p *permissiveMover) Lookup(id heap.ObjectID) (heap.Span, bool) {
	s, ok := p.spans[id]
	return s, ok
}

func refereeWith(t *testing.T, cfg sim.Config, stub *stubManager) *Referee {
	t.Helper()
	ref := NewReferee(stub)
	if cfg.Capacity == 0 {
		cfg.Capacity = cfg.M * sim.DefaultCapacityFactor
	}
	ref.Reset(cfg)
	return ref
}

func hasRule(vs []Violation, rule Rule) bool {
	for _, v := range vs {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

func TestRefereeDetectsOverlap(t *testing.T) {
	stub := &stubManager{next: []word.Addr{0, 4}}
	ref := refereeWith(t, sim.Config{M: 64, N: 8, C: 16}, stub)
	mv := &permissiveMover{spans: map[heap.ObjectID]heap.Span{}}
	if _, err := ref.Allocate(1, 8, mv); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Allocate(2, 8, mv); err != nil {
		t.Fatal(err)
	}
	if !hasRule(ref.Violations(), RuleOverlap) {
		t.Fatalf("overlap not detected: %v", ref.Violations())
	}

	// An overlap that heals before the round ends: object 2 lands on
	// object 1 and is freed again before any CheckRound call. A referee
	// that looked for overlaps only at round checks would miss it.
	// SetSampleEvery(64) is how the benchmark module builds its
	// referee; it must change nothing.
	stub = &stubManager{next: []word.Addr{0, 4}}
	ref = refereeWith(t, sim.Config{M: 64, N: 8, C: 16}, stub)
	ref.SetSampleEvery(64)
	if _, err := ref.Allocate(1, 8, mv); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Allocate(2, 8, mv); err != nil {
		t.Fatal(err)
	}
	ref.Free(2, heap.Span{Addr: 4, Size: 8})
	if !hasRule(ref.Violations(), RuleOverlap) {
		t.Fatalf("overlap healed before the round check not detected: %v", ref.Violations())
	}
}

// twoAllocs allocates two 8-word objects in its first round and then
// stops.
type twoAllocs struct{ done bool }

func (p *twoAllocs) Name() string { return "two-allocs" }
func (p *twoAllocs) Step(*sim.View) ([]heap.ObjectID, []word.Size, bool) {
	if p.done {
		return nil, nil, true
	}
	p.done = true
	return nil, []word.Size{8, 8}, false
}
func (p *twoAllocs) Placed(heap.ObjectID, heap.Span)                {}
func (p *twoAllocs) Moved(heap.ObjectID, heap.Span, heap.Span) bool { return false }

// TestEngineAndRefereeBothCatchOverlap runs a manager that places its
// second object over its first through the real engine under the
// referee: the engine's occupancy bitmap must reject the placement and
// the referee's own bitmap must report it. The two share no code, so
// a fault in the engine's overlap check leaves the referee's report
// standing, and the test says which of the two missed.
func TestEngineAndRefereeBothCatchOverlap(t *testing.T) {
	ref := NewReferee(&stubManager{next: []word.Addr{60, 64}})
	e, err := sim.NewEngine(sim.Config{M: 256, N: 8, C: 16}, &twoAllocs{}, ref)
	if err != nil {
		t.Fatal(err)
	}
	e.RoundHook = ref.CheckRound
	_, err = e.Run()
	engine, referee := errors.Is(err, sim.ErrManager), hasRule(ref.Violations(), RuleOverlap)
	if !engine || !referee {
		t.Fatalf("objects at [60, 68) and [64, 72): engine rejected the overlap %t (err %v), referee reported it %t (%v)",
			engine, err, referee, ref.Violations())
	}
}

func TestRefereeDetectsLiveBound(t *testing.T) {
	stub := &stubManager{next: []word.Addr{0, 8}}
	ref := refereeWith(t, sim.Config{M: 10, N: 8, C: 16}, stub)
	mv := &permissiveMover{spans: map[heap.ObjectID]heap.Span{}}
	ref.Allocate(1, 8, mv)
	ref.Allocate(2, 8, mv) // live 16 > M=10
	if !hasRule(ref.Violations(), RuleLiveBound) {
		t.Fatalf("live-bound not detected: %v", ref.Violations())
	}
}

func TestRefereeDetectsCapacity(t *testing.T) {
	stub := &stubManager{next: []word.Addr{1 << 30}}
	ref := refereeWith(t, sim.Config{M: 64, N: 8, C: 16, Capacity: 128}, stub)
	mv := &permissiveMover{spans: map[heap.ObjectID]heap.Span{}}
	ref.Allocate(1, 8, mv)
	if !hasRule(ref.Violations(), RuleCapacity) {
		t.Fatalf("capacity not detected: %v", ref.Violations())
	}
	// The bitmap covers [0, Capacity) only: a wild placement must not
	// grow it to the placement's address.
	if len(ref.occ) > 128/64 {
		t.Fatalf("bitmap holds %d words for a capacity of 128 words", len(ref.occ))
	}
}

// TestRefereeOverlapAgainstModel places, moves and frees objects at
// random spans clustered around 64-word boundaries, where the
// bitmap's masks split, and requires the referee's overlap verdicts to
// match a brute-force interval model. Every 50 steps its bitmap must
// equal the union of the model's live spans, word for word.
func TestRefereeOverlapAgainstModel(t *testing.T) {
	const capacity = 1 << 9
	rng := rand.New(rand.NewSource(3))
	stub := &stubManager{}
	ref := refereeWith(t, sim.Config{M: capacity, N: capacity, C: 0, Capacity: capacity}, stub)
	mv := &permissiveMover{spans: map[heap.ObjectID]heap.Span{}}
	ref.spy.mv = mv
	live := map[heap.ObjectID]heap.Span{}
	var ids []heap.ObjectID // the keys of live, in a deterministic order
	forget := func(i int) {
		delete(live, ids[i])
		ids[i] = ids[len(ids)-1]
		ids = ids[:len(ids)-1]
	}
	// span picks a size, mostly under two bitmap words, and an address
	// within two words of a 64-word boundary.
	span := func() heap.Span {
		size := word.Size(1 + rng.Intn(130))
		addr := word.Addr(64*rng.Intn(capacity/64) + rng.Intn(5) - 2)
		return heap.Span{Addr: min(max(addr, 0), capacity-size), Size: size}
	}
	overlaps := func(s heap.Span, except heap.ObjectID) bool {
		for id, o := range live {
			if id != except && o.Addr < s.End() && s.Addr < o.End() {
				return true
			}
		}
		return false
	}
	for step, id := 0, heap.ObjectID(1); step < 5000; step++ {
		var want bool
		switch op := rng.Intn(3); {
		case op == 0 && len(ids) > 0: // free
			i := rng.Intn(len(ids))
			ref.Free(ids[i], live[ids[i]])
			forget(i)
		case op == 1 && len(ids) > 0: // move, possibly onto another object
			i := rng.Intn(len(ids))
			moved, to := ids[i], span()
			to.Size = live[moved].Size
			to.Addr = min(to.Addr, capacity-to.Size)
			if want = overlaps(to, moved); want {
				forget(i) // an object moved onto another leaves the shadow
			} else {
				live[moved] = to
			}
			if _, err := ref.spy.Move(moved, to.Addr); err != nil {
				t.Fatal(err)
			}
		default: // place
			s := span()
			stub.next = append(stub.next, s.Addr)
			if want = overlaps(s, 0); !want {
				live[id] = s
				ids = append(ids, id)
			}
			if _, err := ref.Allocate(id, s.Size, mv); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if vs := ref.Violations(); len(vs) > 1 || (len(vs) == 1) != want || (want && vs[0].Rule != RuleOverlap) {
			t.Fatalf("step %d: violations %v, want an overlap %t", step, vs, want)
		}
		ref.violations = ref.violations[:0]
		if step%50 != 0 {
			continue
		}
		if len(ref.occ) > capacity/64 {
			t.Fatalf("step %d: bitmap holds %d words, capacity %d", step, len(ref.occ), capacity)
		}
		for a := word.Addr(0); a < capacity; a++ {
			set := int(a>>6) < len(ref.occ) && ref.occ[a>>6]&(1<<(a&63)) != 0
			if covered := overlaps(heap.Span{Addr: a, Size: 1}, 0); set != covered {
				t.Fatalf("step %d: word %d marked %t, covered by a live object %t", step, a, set, covered)
			}
		}
	}
}

func TestRefereeDetectsOverBudgetMove(t *testing.T) {
	// c=16 and a single 8-word allocation: quota is 8/16 = 0 words, so
	// any move is over budget. The permissive mover approves it; only
	// the referee can flag it.
	stub := &stubManager{next: []word.Addr{0, 64}}
	ref := refereeWith(t, sim.Config{M: 64, N: 8, C: 16}, stub)
	mv := &permissiveMover{spans: map[heap.ObjectID]heap.Span{}}
	ref.Allocate(1, 8, mv)
	mv.spans[1] = heap.Span{Addr: 0, Size: 8}
	stub.moves = append(stub.moves, struct {
		id heap.ObjectID
		to word.Addr
	}{1, 32})
	ref.Allocate(2, 8, mv)
	if !hasRule(ref.Violations(), RuleBudget) {
		t.Fatalf("budget violation not detected: %v", ref.Violations())
	}
}

func TestRefereeDetectsNonMovingMove(t *testing.T) {
	stub := &stubManager{next: []word.Addr{0, 64}}
	ref := refereeWith(t, sim.Config{M: 64, N: 8, C: budget.NoCompaction}, stub)
	mv := &permissiveMover{spans: map[heap.ObjectID]heap.Span{}}
	ref.Allocate(1, 8, mv)
	mv.spans[1] = heap.Span{Addr: 0, Size: 8}
	stub.moves = append(stub.moves, struct {
		id heap.ObjectID
		to word.Addr
	}{1, 32})
	ref.Allocate(2, 8, mv)
	if !hasRule(ref.Violations(), RuleNonMoving) {
		t.Fatalf("non-moving move not detected: %v", ref.Violations())
	}
}

func TestRefereeDetectsBookkeepingDivergence(t *testing.T) {
	stub := &stubManager{next: []word.Addr{0}}
	ref := refereeWith(t, sim.Config{M: 64, N: 8, C: 16}, stub)
	mv := &permissiveMover{spans: map[heap.ObjectID]heap.Span{}}
	ref.Allocate(1, 8, mv)
	// An engine snapshot that disagrees with the shadow on every
	// counter, including a shrinking high-water mark.
	ref.CheckRound(sim.Result{Allocated: 999, Moved: 1, MaxLive: 0, HighWater: 4})
	vs := ref.Violations()
	if !hasRule(vs, RuleBookkeeping) || !hasRule(vs, RuleHighWater) {
		t.Fatalf("divergence not detected: %v", vs)
	}
	// A decreasing high-water mark relative to the last report.
	ref.CheckRound(sim.Result{Allocated: 8, Moved: 0, MaxLive: 8, HighWater: 2})
	if len(vs) == len(ref.Violations()) {
		t.Fatalf("monotonicity breach not detected")
	}
}

// TestRefereeDetectsFreeSpanMismatch: managers take the span Free is
// handed on trust, so the referee's shadow is what catches an engine
// that hands over the wrong span, or frees an object never placed.
func TestRefereeDetectsFreeSpanMismatch(t *testing.T) {
	stub := &stubManager{next: []word.Addr{0}}
	ref := refereeWith(t, sim.Config{M: 64, N: 8, C: 16}, stub)
	mv := &permissiveMover{spans: map[heap.ObjectID]heap.Span{}}
	if _, err := ref.Allocate(1, 8, mv); err != nil {
		t.Fatal(err)
	}
	ref.Free(1, heap.Span{Addr: 0, Size: 9})
	if !hasRule(ref.Violations(), RuleBookkeeping) {
		t.Fatalf("free span mismatch not detected: %v", ref.Violations())
	}

	ref = refereeWith(t, sim.Config{M: 64, N: 8, C: 16}, &stubManager{})
	ref.Free(7, heap.Span{Addr: 0, Size: 8})
	if !hasRule(ref.Violations(), RuleBookkeeping) {
		t.Fatalf("free of an object never placed not detected: %v", ref.Violations())
	}

	// Over a real manager, which would panic releasing a wrong span,
	// the violation must reach the caller and the run go on: the
	// manager is handed the shadow's span, or nothing.
	inner, err := mm.New("first-fit")
	if err != nil {
		t.Fatal(err)
	}
	ref = NewReferee(inner)
	ref.Reset(sim.Config{M: 64, N: 8, C: 16, Capacity: 64 * sim.DefaultCapacityFactor})
	if _, err := ref.Allocate(1, 8, mv); err != nil {
		t.Fatal(err)
	}
	ref.Free(1, heap.Span{Addr: 0, Size: 9})
	ref.Free(7, heap.Span{Addr: 16, Size: 8})
	if !hasRule(ref.Violations(), RuleBookkeeping) {
		t.Fatalf("free span mismatch over first-fit not detected: %v", ref.Violations())
	}
	if addr, err := ref.Allocate(2, 8, mv); err != nil || addr != 0 {
		t.Fatalf("after the mismatched free, Allocate = %d, %v; want the released words at 0", addr, err)
	}
}

func TestRefereeCleanRunEndToEnd(t *testing.T) {
	// A full engine run against real managers must produce zero
	// violations and results identical to an unrefereed run.
	cfg := sim.Config{M: 1 << 10, N: 1 << 5, C: 8}
	for _, mgr := range []string{"first-fit", "best-fit", "threshold"} {
		rep, err := Run(cfg, script(), mgr)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err != nil {
			t.Fatalf("%s: run failed: %v", mgr, rep.Err)
		}
		if !rep.Ok() {
			t.Fatalf("%s: violations on a clean run:\n%s", mgr, rep)
		}
		if rep.Result.Manager != mgr {
			t.Fatalf("referee is not transparent: result manager %q", rep.Result.Manager)
		}
	}
}

// script is a small deterministic churn program.
func script() sim.Program { return &churn{} }

type churn struct {
	step int
	live []heap.ObjectID
}

func (c *churn) Name() string { return "churn" }
func (c *churn) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	c.step++
	if c.step > 40 {
		return nil, nil, true
	}
	var frees []heap.ObjectID
	if len(c.live) > 4 {
		frees = append(frees, c.live[0], c.live[2])
		c.live = append(c.live[:2:2], c.live[3:]...)
		c.live = c.live[1:]
	}
	sizes := []word.Size{1 + word.Size(c.step%7), 1 + word.Size((3*c.step)%13)}
	return frees, sizes, false
}
func (c *churn) Placed(id heap.ObjectID, _ heap.Span)           { c.live = append(c.live, id) }
func (c *churn) Moved(heap.ObjectID, heap.Span, heap.Span) bool { return false }

func TestViolationString(t *testing.T) {
	v := Violation{Rule: RuleOverlap, Round: 3, Op: "alloc", Detail: "spans collide"}
	s := v.String()
	for _, want := range []string{"overlap", "round 3", "alloc", "spans collide"} {
		if !strings.Contains(s, want) {
			t.Fatalf("violation string %q missing %q", s, want)
		}
	}
}
