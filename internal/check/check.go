// Package check is the differential and metamorphic verification layer
// of the reproduction. Theorem 1 quantifies over *all* c-partial
// managers, so every simulated data point is only as trustworthy as the
// engine's invariant enforcement; this package re-verifies those
// invariants with machinery that is deliberately independent of the
// engine's own bookkeeping.
//
// It provides:
//
//   - Referee, a transparent sim.Manager wrapper that shadows every
//     placement, free and move in its own ID-indexed span table and
//     its own bitmap of the heap's occupied words, and reports
//     structured Violations when a model invariant breaks (overlap,
//     live bound, compaction budget, non-moving moves, high-water
//     monotonicity, engine/shadow divergence);
//   - Run / RunTrace, one-call harnesses that couple a program (or a
//     recorded trace) with a referee-wrapped manager;
//   - Differential (oracle.go), which replays one deterministic trace
//     through every registered manager and cross-checks the outcomes,
//     first-fit against its independently built twin bitmap-first-fit;
//   - DecodeTrace (decode.go), the shared byte→trace decoder behind the
//     native fuzz targets, and Shrink (shrink.go), a greedy minimizer
//     for failing traces.
package check

import (
	"fmt"
	"strings"

	"compaction/internal/budget"
	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/obs"
	"compaction/internal/sim"
	"compaction/internal/trace"
	"compaction/internal/word"
)

// Rule identifies which model invariant a Violation breaks.
type Rule string

// The invariants the referee enforces (DESIGN.md §3).
const (
	// RuleOverlap: two live objects occupy a common word.
	RuleOverlap Rule = "overlap"
	// RuleLiveBound: live words exceed the configured M.
	RuleLiveBound Rule = "live-bound"
	// RuleBudget: moved words exceed allocated/c.
	RuleBudget Rule = "budget"
	// RuleNonMoving: a manager declared non-moving (c = NoCompaction)
	// moved an object.
	RuleNonMoving Rule = "non-moving"
	// RuleHighWater: the engine-reported high-water mark decreased or
	// diverged from the shadow's.
	RuleHighWater Rule = "high-water"
	// RuleCapacity: a placement or move lies outside [0, Capacity).
	RuleCapacity Rule = "capacity"
	// RuleBookkeeping: the engine's per-round snapshot disagrees with
	// the referee's independent shadow state.
	RuleBookkeeping Rule = "bookkeeping"
)

// Violation is one structured invariant failure.
type Violation struct {
	Rule   Rule
	Round  int
	Op     string // the operation that exposed it (alloc/free/move/round)
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] round %d, %s: %s", v.Rule, v.Round, v.Op, v.Detail)
}

// maxViolations bounds the report so a badly broken run does not build
// an unbounded slice.
const maxViolations = 64

// Referee wraps a manager and independently re-verifies every engine
// invariant. It is transparent: Name, placements and errors pass
// through unchanged, so results with and without a referee are
// comparable. The shadow state is its own dense span table by ID plus
// its own bitmap of occupied words — on purpose neither the engine's
// span table and occupancy bitmap nor the free-space B+tree under
// test. Every check is exact: each placement, free and move is checked
// as it happens, in time independent of the live set.
type Referee struct {
	inner sim.Manager
	cfg   sim.Config
	// spy is handed to the inner manager in place of the engine's
	// mover on every call, so a call allocates nothing.
	spy spyMover

	byID shadowTable
	// occ has bit a%64 of occ[a/64] set while a live object covers
	// word a. It covers [0, Capacity) only, grown to the highest word
	// placed; it shares no code with heap.Bitmap, the engine's.
	occ []uint64

	live      word.Size
	maxLive   word.Size
	allocated word.Size
	moved     word.Size
	highWater word.Addr
	lastHW    word.Addr // engine-reported HW of the previous round
	round     int

	// tracer, when set, receives one referee-sweep event per
	// CheckRound invocation, carrying the cumulative violation count.
	tracer obs.Tracer

	violations []Violation
}

var (
	_ sim.Manager        = (*Referee)(nil)
	_ sim.RoundCompactor = (*Referee)(nil)
)

// NewReferee wraps inner.
func NewReferee(inner sim.Manager) *Referee {
	r := &Referee{inner: inner}
	r.spy.r = r
	return r
}

// SetSampleEvery has no effect: the referee checks every operation
// exactly, whatever the argument. Its last caller is the benchmark
// module (perfbench/pf.go:86); the method goes when that call does.
func (r *Referee) SetSampleEvery(int) {}

// SetTracer implements obs.TracerSetter: the referee emits a sweep
// event per CheckRound and forwards the tracer to the wrapped manager
// when it accepts one (managers embedding mm.Base do), so one call
// threads tracing through the whole manager stack. The setting
// survives Reset.
func (r *Referee) SetTracer(t obs.Tracer) {
	r.tracer = t
	if ts, ok := r.inner.(obs.TracerSetter); ok {
		ts.SetTracer(t)
	}
}

// Name implements sim.Manager; the referee is transparent.
func (r *Referee) Name() string { return r.inner.Name() }

// Reset implements sim.Manager.
func (r *Referee) Reset(cfg sim.Config) {
	r.cfg = cfg
	r.byID = shadowTable{}
	r.occ = r.occ[:0]
	r.live, r.maxLive = 0, 0
	r.allocated, r.moved = 0, 0
	r.highWater, r.lastHW = 0, 0
	r.round = 0
	r.violations = nil
	r.inner.Reset(cfg)
}

// Violations returns the invariant failures observed so far.
func (r *Referee) Violations() []Violation { return r.violations }

// Ok reports whether no invariant has been violated.
func (r *Referee) Ok() bool { return len(r.violations) == 0 }

func (r *Referee) report(rule Rule, op, format string, args ...any) {
	if len(r.violations) >= maxViolations {
		return
	}
	r.violations = append(r.violations, Violation{
		Rule: rule, Round: r.round, Op: op, Detail: fmt.Sprintf(format, args...),
	})
}

// occWords returns the part [lo, hi) of s inside [0, Capacity), the
// words the bitmap covers; hi <= lo when there is none.
func (r *Referee) occWords(s heap.Span) (lo, hi word.Addr) {
	return max(s.Addr, 0), min(s.End(), r.cfg.Capacity)
}

// occMask returns the bits of [lo, hi) that lie in lo's bitmap word,
// and the address where the next word's part of the range starts.
func occMask(lo, hi word.Addr) (uint64, word.Addr) {
	next := min(hi, (lo|63)+1)
	return ^uint64(0) >> (64 - (next - lo)) << (lo & 63), next
}

// occupied reports whether a live object covers any word of s.
func (r *Referee) occupied(s heap.Span) bool {
	for lo, hi := r.occWords(s); lo < hi; {
		m, next := occMask(lo, hi)
		if w := int(lo >> 6); w < len(r.occ) && r.occ[w]&m != 0 {
			return true
		}
		lo = next
	}
	return false
}

// mark sets the bits of s, growing the bitmap to cover them.
func (r *Referee) mark(s heap.Span) {
	lo, hi := r.occWords(s)
	if n := int((hi + 63) >> 6); lo < hi && n > len(r.occ) {
		r.occ = append(r.occ, make([]uint64, n-len(r.occ))...)
	}
	for lo < hi {
		m, next := occMask(lo, hi)
		r.occ[lo>>6] |= m
		lo = next
	}
}

// unmark clears the bits of s and reports whether all were set.
func (r *Referee) unmark(s heap.Span) bool {
	set := true
	for lo, hi := r.occWords(s); lo < hi; {
		m, next := occMask(lo, hi)
		w := int(lo >> 6)
		if w >= len(r.occ) {
			return false
		}
		set = set && r.occ[w]&m == m
		r.occ[w] &^= m
		lo = next
	}
	return set
}

// place records a new live span after checking the no-overlap,
// capacity, live-bound and high-water invariants.
func (r *Referee) place(op string, id heap.ObjectID, s heap.Span) {
	if s.Addr < 0 || s.End() > r.cfg.Capacity {
		r.report(RuleCapacity, op, "object %d span %v outside heap [0, %d)", id, s, r.cfg.Capacity)
	}
	if r.occupied(s) {
		r.report(RuleOverlap, op, "object %d span %v overlaps a live object", id, s)
		return
	}
	if _, dup := r.byID.get(id); dup {
		r.report(RuleBookkeeping, op, "object %d placed twice", id)
		return
	}
	r.byID.put(id, s)
	r.mark(s)
	r.live += s.Size
	if r.live > r.maxLive {
		r.maxLive = r.live
	}
	if r.live > r.cfg.M {
		r.report(RuleLiveBound, op, "live %d exceeds M=%d", r.live, r.cfg.M)
	}
	if s.End() > r.highWater {
		r.highWater = s.End()
	}
}

func (r *Referee) drop(op string, id heap.ObjectID) {
	s, ok := r.byID.del(id)
	if !ok {
		r.report(RuleBookkeeping, op, "object %d is not live in the shadow", id)
		return
	}
	if !r.unmark(s) {
		r.report(RuleBookkeeping, op, "object %d span %v not marked in the shadow bitmap", id, s)
	}
	r.live -= s.Size
}

// Allocate implements sim.Manager. The engine credits the allocation
// to the compaction budget before calling the manager, so the referee
// mirrors that credit before the inner manager runs (it may move using
// the fresh quota).
func (r *Referee) Allocate(id heap.ObjectID, size word.Size, mv sim.Mover) (word.Addr, error) {
	r.allocated += size
	r.spy.mv = mv
	addr, err := r.inner.Allocate(id, size, &r.spy)
	if err != nil {
		return addr, err
	}
	r.place("alloc", id, heap.Span{Addr: addr, Size: size})
	return addr, nil
}

// Free implements sim.Manager. The inner manager takes the span it is
// handed on trust, so it gets the shadow's span, and nothing for an
// object the shadow does not hold: a wrong span from the engine is
// reported as a violation here instead of corrupting, or panicking,
// the manager under test.
func (r *Referee) Free(id heap.ObjectID, s heap.Span) {
	cur, ok := r.byID.get(id)
	if !ok || cur != s {
		r.report(RuleBookkeeping, "free", "free of %d span %v, shadow has %v (live=%t)", id, s, cur, ok)
	}
	r.drop("free", id)
	if ok {
		r.inner.Free(id, cur)
	}
}

// StartRound implements sim.RoundCompactor, forwarding to the inner
// manager when it compacts at round starts. The referee uses the call
// as its round clock even for non-compacting managers.
func (r *Referee) StartRound(mv sim.Mover) {
	r.round++
	if rc, ok := r.inner.(sim.RoundCompactor); ok {
		r.spy.mv = mv
		rc.StartRound(&r.spy)
	}
}

// checkBudget re-verifies q ≤ s/c with formulation independent of the
// budget package: for c > 0 the ledger maintains moved ≤ ⌊allocated/c⌋,
// equivalently moved·c ≤ allocated.
func (r *Referee) checkBudget(size word.Size) {
	switch {
	case r.cfg.C == budget.NoCompaction:
		r.report(RuleNonMoving, "move", "non-moving manager moved %d words", size)
	case r.cfg.C == 0:
		// Unlimited: nothing to check.
	case r.moved > r.allocated/r.cfg.C:
		r.report(RuleBudget, "move", "moved %d words > allocated %d / c=%d",
			r.moved, r.allocated, r.cfg.C)
	}
}

// CheckRound is wired to sim.Engine.RoundHook: it cross-checks the
// engine's per-round snapshot against the shadow state.
func (r *Referee) CheckRound(res sim.Result) {
	if res.Allocated != r.allocated {
		r.report(RuleBookkeeping, "round", "engine allocated=%d, shadow=%d", res.Allocated, r.allocated)
	}
	if res.Moved != r.moved {
		r.report(RuleBookkeeping, "round", "engine moved=%d, shadow=%d", res.Moved, r.moved)
	}
	if res.MaxLive != r.maxLive {
		r.report(RuleBookkeeping, "round", "engine maxLive=%d, shadow=%d", res.MaxLive, r.maxLive)
	}
	if res.HighWater < r.lastHW {
		r.report(RuleHighWater, "round", "high-water decreased %d -> %d", r.lastHW, res.HighWater)
	}
	if res.HighWater != r.highWater {
		r.report(RuleHighWater, "round", "engine HS=%d, shadow HS=%d", res.HighWater, r.highWater)
	}
	r.lastHW = res.HighWater
	if r.tracer != nil {
		r.tracer.Emit(obs.Event{
			Kind: obs.EvSweep, Round: res.Rounds - 1,
			Violations: len(r.violations), Live: r.live,
		})
	}
}

// HighWater returns the shadow high-water mark.
func (r *Referee) HighWater() word.Addr { return r.highWater }

// Live returns the words the shadow currently considers live.
func (r *Referee) Live() word.Size { return r.live }

// Objects returns the number of objects the shadow considers live.
func (r *Referee) Objects() int { return r.byID.n }

// spyMover interposes on the engine mover to shadow successful moves.
type spyMover struct {
	r  *Referee
	mv sim.Mover
}

func (s *spyMover) Move(id heap.ObjectID, to word.Addr) (bool, error) {
	r := s.r
	old, ok := r.byID.get(id)
	if !ok {
		// The engine will reject this too; record the attempt and pass
		// it through so error behaviour stays transparent.
		r.report(RuleBookkeeping, "move", "move of object %d not live in shadow", id)
		return s.mv.Move(id, to)
	}
	freed, err := s.mv.Move(id, to)
	if err != nil {
		return freed, err
	}
	ns := heap.Span{Addr: to, Size: old.Size}
	r.moved += old.Size
	r.checkBudget(old.Size)
	if ns.Addr < 0 || ns.End() > r.cfg.Capacity {
		r.report(RuleCapacity, "move", "object %d moved to %v outside heap [0, %d)", id, ns, r.cfg.Capacity)
	}
	// Re-place: remove the old span first so an overlapping slide is
	// legal, exactly as the model allows.
	r.drop("move", id)
	r.place("move", id, ns)
	if freed {
		r.drop("move-free", id)
	}
	return freed, nil
}

func (s *spyMover) Remaining() word.Size { return s.mv.Remaining() }

func (s *spyMover) Lookup(id heap.ObjectID) (heap.Span, bool) {
	sp, ok := s.mv.Lookup(id)
	if shadow, sok := s.r.byID.get(id); sok != ok || (ok && shadow != sp) {
		s.r.report(RuleBookkeeping, "lookup", "engine lookup of %d = (%v,%t), shadow (%v,%t)",
			id, sp, ok, shadow, sok)
	}
	return sp, ok
}

// Report summarizes a refereed run.
type Report struct {
	Result     sim.Result
	Err        error
	Violations []Violation
}

// Ok reports a clean run: no engine error and no invariant violation.
func (p Report) Ok() bool { return p.Err == nil && len(p.Violations) == 0 }

func (p Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s vs %s: HS=%d waste=%.3f", p.Result.Program, p.Result.Manager,
		p.Result.HighWater, p.Result.WasteFactor())
	if p.Err != nil {
		fmt.Fprintf(&b, " err=%v", p.Err)
	}
	for _, v := range p.Violations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}

// Run executes prog against the named registered manager with a
// referee attached and per-round cross-checking enabled. The returned
// error covers construction problems only; run-time failures land in
// Report.Err.
//
// Optional tracers are combined with obs.Tee and attached to both the
// engine and the referee, so long refereed runs can report progress
// (e.g. via obs.SimMetrics gauges) instead of running silently.
func Run(cfg sim.Config, prog sim.Program, manager string, tracers ...obs.Tracer) (Report, error) {
	mgr, err := mm.New(manager)
	if err != nil {
		return Report{}, err
	}
	ref := NewReferee(mgr)
	e, err := sim.NewEngine(cfg, prog, ref)
	if err != nil {
		return Report{}, err
	}
	if tr := obs.Tee(tracers...); tr != nil {
		e.Tracer = tr
		ref.SetTracer(tr)
	}
	e.RoundHook = ref.CheckRound
	res, rerr := e.Run()
	return Report{Result: res, Err: rerr, Violations: ref.Violations()}, nil
}

// RunTrace replays a recorded trace against the named manager,
// refereed.
func RunTrace(tr *trace.Trace, manager string) (Report, error) {
	cfg := sim.Config{M: tr.M, N: tr.N, C: tr.C}
	return Run(cfg, trace.NewReplayer(tr), manager)
}
