package check

import (
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
