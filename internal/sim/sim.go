// Package sim implements the execution framework of the
// partial-compaction model: an interaction between a program and a
// memory manager proceeding in rounds of
//
//	de-allocation → compaction → allocation
//
// exactly as in Section 2.1 of Cohen & Petrank (PLDI 2013). The engine
// owns the ground truth (object placements, the compaction-budget
// ledger and the heap high-water mark) and validates every action of
// both parties:
//
//   - the program never exceeds M simultaneously-live words and only
//     allocates sizes in [1, n] (powers of two when the run is declared
//     to be in P2);
//   - the manager never overlaps objects and never moves more than
//     allocated/c words (c-partial bound);
//   - the program learns the address of every placement and is
//     notified of every move, and may free a moved object immediately
//     (the hook the paper's adversary P_F requires).
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"compaction/internal/budget"
	"compaction/internal/heap"
	"compaction/internal/obs"
	"compaction/internal/word"
)

// Config are the model parameters of a run.
type Config struct {
	// M is the bound on simultaneously live words.
	M word.Size
	// N is the largest allocatable object size (the paper's n).
	N word.Size
	// C is the compaction bound: the manager may move at most 1/C of
	// the allocated space. C == 0 means unlimited compaction;
	// C == budget.NoCompaction means a non-moving manager.
	C int64
	// Pow2Only declares the program to be in P2(M, n): every requested
	// size must be a power of two. The engine enforces it.
	Pow2Only bool
	// Capacity bounds the heap address space available to the manager.
	// Zero selects a generous default. Runs that exceed it fail, which
	// keeps buggy managers from running away.
	Capacity word.Size
	// MaxRounds aborts runs that do not terminate. Zero selects a
	// large default.
	MaxRounds int
	// Shards partitions the heap address space into equal shards, each
	// owned by an independent sub-heap with its own free-space index
	// and occupancy accounting. 0 and 1 both select the single
	// sequential heap of the paper; only managers built on
	// internal/heap/sharded consult the knob, so it is inert for the
	// classic managers. Values above 1 require Capacity to divide
	// evenly into shards of at least N words (Validate enforces it).
	Shards int
}

// MaxShards bounds Config.Shards, which arrives from outside the
// process (compactsim's -shards flag, compactd job specs): a sharded
// manager builds one sub-manager per shard, so an unbounded count
// would let one request build arbitrarily many.
const MaxShards = 256

// DefaultCapacityFactor is the default heap capacity in units of M.
const DefaultCapacityFactor = 64

func (c Config) withDefaults() Config {
	if c.Capacity == 0 {
		c.Capacity = c.M * DefaultCapacityFactor
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 1 << 20
	}
	return c
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.M <= 0 {
		return fmt.Errorf("sim: M must be positive, got %d", c.M)
	}
	if c.N <= 0 || c.N > c.M {
		return fmt.Errorf("sim: need 0 < n <= M, got n=%d M=%d", c.N, c.M)
	}
	if c.Pow2Only && !word.IsPow2(c.N) {
		return fmt.Errorf("sim: P2 run requires n to be a power of two, got %d", c.N)
	}
	if c.C < budget.NoCompaction {
		return fmt.Errorf("sim: invalid compaction bound %d", c.C)
	}
	if c.Shards < 0 || c.Shards > MaxShards {
		return fmt.Errorf("sim: Shards must be in [0, %d], got %d", MaxShards, c.Shards)
	}
	if c.Shards > 1 {
		// Validate against the capacity a run would actually use, so a
		// zero Capacity (defaulted later) is checked consistently.
		capacity := c.Capacity
		if capacity == 0 {
			capacity = c.M * DefaultCapacityFactor
		}
		if capacity%word.Size(c.Shards) != 0 {
			return fmt.Errorf("sim: capacity %d does not divide into %d shards", capacity, c.Shards)
		}
		if per := capacity / word.Size(c.Shards); per < c.N {
			return fmt.Errorf("sim: shard capacity %d below max object size n=%d", per, c.N)
		}
	}
	return nil
}

// View is the read-only state a program may consult while deciding its
// next round.
type View struct {
	Round     int
	Live      word.Size
	Allocated word.Size
	Moved     word.Size
	HighWater word.Addr
	Config    Config

	occ *heap.Occupancy
}

// Lookup returns the current span of a live object.
func (v *View) Lookup(id heap.ObjectID) (heap.Span, bool) {
	return v.occ.Lookup(id)
}

// Program is the allocating side of the interaction. Implementations
// include the adversaries (Robson's P_R, the paper's P_F) and
// synthetic workloads.
type Program interface {
	// Name identifies the program in reports.
	Name() string
	// Step returns the object IDs to free and the sizes to allocate in
	// this round, and whether the program is finished after it. The
	// engine assigns IDs to the new objects in request order starting
	// from the engine's counter; placements arrive via Placed.
	Step(v *View) (frees []heap.ObjectID, allocs []word.Size, done bool)
	// Placed reports the placement of an object requested in the
	// current round, in request order.
	Placed(id heap.ObjectID, s heap.Span)
	// Moved reports that the manager relocated a live object. If the
	// result is true, the engine frees the object immediately, before
	// the manager takes any further action (the paper's
	// free-on-compaction rule used by P_F).
	Moved(id heap.ObjectID, from, to heap.Span) (freeNow bool)
}

// Mover is handed to the manager during allocation (and round starts)
// so it can spend compaction budget.
type Mover interface {
	// Move relocates live object id to address to. It debits the
	// budget, validates the destination, and notifies the program. If
	// the program frees the object in response, freed is true and the
	// destination words are immediately free again; the manager must
	// update its own structures accordingly.
	Move(id heap.ObjectID, to word.Addr) (freed bool, err error)
	// Remaining returns the compaction budget still available, in words.
	Remaining() word.Size
	// Lookup returns the current span of a live object.
	Lookup(id heap.ObjectID) (heap.Span, bool)
}

// Manager is the memory-management side of the interaction.
type Manager interface {
	// Name identifies the manager in reports.
	Name() string
	// Reset prepares the manager for a fresh run with the given
	// configuration.
	Reset(cfg Config)
	// Allocate returns the placement address for a new object. The
	// engine has already credited the allocation to the compaction
	// budget, so the manager may move up to mv.Remaining() words first.
	Allocate(id heap.ObjectID, size word.Size, mv Mover) (word.Addr, error)
	// Free notifies the manager that the program freed an object. It
	// is NOT called for objects the program freed in response to a
	// move; Mover.Move reports those to the manager directly.
	Free(id heap.ObjectID, s heap.Span)
}

// RoundCompactor is an optional Manager extension: managers that want
// to compact at the start of a round (after the program's frees,
// before its allocations) implement it.
type RoundCompactor interface {
	StartRound(mv Mover)
}

// Result summarizes a finished run.
type Result struct {
	Program   string
	Manager   string
	Config    Config
	Rounds    int
	Allocs    int64
	Frees     int64
	Moves     int64
	HighWater word.Addr // HS: the paper's heap size
	MaxLive   word.Size
	Allocated word.Size // s: total words allocated
	Moved     word.Size // q: total words moved
}

// WasteFactor returns HS/M, the space-overhead factor the paper plots.
func (r Result) WasteFactor() float64 {
	return float64(r.HighWater) / float64(r.Config.M)
}

// Error categories for failed runs.
var (
	// ErrProgram marks a violation by the program (exceeding M,
	// illegal size, freeing a dead object).
	ErrProgram = errors.New("sim: program violated the model")
	// ErrManager marks a violation by the manager (overlap, budget,
	// capacity, allocation failure).
	ErrManager = errors.New("sim: manager violated the model")
	// ErrMaxRounds marks a run aborted because it reached
	// Config.MaxRounds without the program declaring itself done. It is
	// a program violation (the model requires termination), so it also
	// matches ErrProgram.
	ErrMaxRounds = fmt.Errorf("%w: round limit exceeded", ErrProgram)
	// ErrCanceled marks a run stopped cooperatively by its context —
	// a cancellation or a deadline, not a model violation by either
	// party. The wrapped chain includes the context's own error, so
	// errors.Is(err, context.DeadlineExceeded) distinguishes deadline
	// misses from plain cancellation.
	ErrCanceled = errors.New("sim: run canceled")
)

// Engine couples one program with one manager for one run.
type Engine struct {
	cfg    Config
	prog   Program
	mgr    Manager
	occ    *heap.Occupancy
	ledger *budget.Ledger
	nextID heap.ObjectID
	mv     mover // reused across every move/alloc; no per-op allocation

	rounds int
	allocs int64
	frees  int64
	moves  int64

	// RoundHook, if set, is called with a result snapshot after rounds
	// selected by RoundHookEvery.
	RoundHook func(Result)
	// RoundHookEvery samples the hook: values > 1 fire it only every
	// k-th round (and always on the final round). Values <= 1 fire it
	// every round. Heap samplers use it to thin HeapHook; a referee's
	// CheckRound fires every round, as check.Run leaves it at 0.
	RoundHookEvery int
	// Tracer, if non-nil, receives one typed obs event per allocation,
	// free, move and round boundary (unsampled — the tracer sees every
	// round even when RoundHookEvery thins the hook). The nil default
	// costs one predictable branch per emission site and keeps the
	// round loop allocation-free; enabled tracers built on obs.Ring
	// and obs.SimMetrics keep it allocation-free too (both pinned by
	// TestEngineRoundIsAllocFree). The setting survives Reset.
	Tracer obs.Tracer
	// HeapHook, if non-nil, receives the engine's ground-truth
	// occupancy at the same sampled round boundaries as RoundHook
	// (every RoundHookEvery-th round and the final one). It is the
	// fragmentation-introspection twin of Tracer: nil is the zero-cost
	// default (one branch per round), and an installed hook — such as
	// heapscope.Sampler.Sample — must stay allocation-free on its warm
	// path so the round loop's zero-alloc pin holds with sampling
	// enabled. Like Tracer, the setting survives Reset, and the
	// nilguard analyzer statically requires every call site to sit
	// behind a nil check.
	HeapHook HeapHook
}

// HeapHook observes the heap at a sampled round boundary: round is the
// 0-based index of the round just completed, occ the engine's live
// occupancy record. Hooks must treat occ as read-only and must not
// retain references past the run — the engine mutates it every round
// and recycles it across Reset.
type HeapHook func(round int, occ *heap.Occupancy)

// NewEngine validates the configuration and prepares a run.
func NewEngine(cfg Config, prog Program, mgr Manager) (*Engine, error) {
	e := &Engine{occ: heap.NewOccupancy()}
	e.mv.e = e
	if err := e.Reset(cfg, prog, mgr); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset prepares the engine for a fresh run with a new configuration,
// program, and manager, retaining internal structures (the occupancy
// bitmap and table pages) for reuse. It lets a sweep worker run many
// cells without rebuilding the engine's ground truth from scratch.
// The hook settings carry over.
func (e *Engine) Reset(cfg Config, prog Program, mgr Manager) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	e.cfg, e.prog, e.mgr = cfg, prog, mgr
	e.occ.Reset()
	e.ledger = budget.NewLedger(cfg.C)
	e.nextID = 1
	e.rounds, e.allocs, e.frees, e.moves = 0, 0, 0, 0
	return nil
}

// Run executes the interaction to completion and returns the result.
// It is the non-cancellable convenience form of RunCtx; callers that
// need deadlines or SIGINT handling pass their own context there.
func (e *Engine) Run() (Result, error) {
	//compactlint:allow ctxflow deliberate convenience wrapper; RunCtx is the context-aware API
	return e.RunCtx(context.Background())
}

// RunCtx is Run under cooperative cancellation: the engine polls the
// context at every round boundary and, when it is done, stops the run
// with a partial Result and an error matching ErrCanceled (and the
// context's cause). Cancellation is cooperative — a program stalled
// inside a single Step is not preempted — which keeps the round loop
// allocation-free: a background context costs one nil check per
// round, a real one a non-blocking channel poll.
//
// The noalloc annotation is the static half of the zero-allocs-per-
// round pin; the dynamic half is TestEngineRoundIsAllocFree in
// allocs_test.go, which measures the same property with
// testing.AllocsPerRun. Each names the other so neither can be
// weakened unnoticed.
//
//compactlint:noalloc
func (e *Engine) RunCtx(ctx context.Context) (Result, error) {
	e.mgr.Reset(e.cfg)
	//compactlint:allow noalloc per-run setup before the loop, charged to runFixedAllocBudget
	view := &View{Config: e.cfg, occ: e.occ}
	done := ctx.Done()
	var roundStart time.Time
	for round := 0; round < e.cfg.MaxRounds; round++ {
		if done != nil {
			select {
			case <-done:
				return e.result(), fmt.Errorf("%w at round %d: %w", ErrCanceled, round, context.Cause(ctx))
			default:
			}
		}
		if e.Tracer != nil {
			// The round timestamp feeds the trace's Nanos field only;
			// no simulation decision ever reads it, so determinism of
			// results is preserved.
			roundStart = time.Now() //compactlint:allow determinism tracing timestamp, never read by the model
		}
		view.Round = round
		view.Live = e.occ.Live()
		view.Allocated, view.Moved = e.ledger.Snapshot()
		view.HighWater = e.occ.HighWater()

		frees, allocs, done := e.prog.Step(view)
		if err := e.doFrees(frees); err != nil {
			return e.result(), err
		}
		if rc, ok := e.mgr.(RoundCompactor); ok {
			rc.StartRound(&e.mv)
		}
		if err := e.doAllocs(allocs); err != nil {
			return e.result(), err
		}
		e.rounds = round + 1
		if e.Tracer != nil {
			s, q := e.ledger.Snapshot()
			e.Tracer.Emit(obs.Event{
				Kind:      obs.EvRound,
				Round:     round,
				Live:      e.occ.Live(),
				Allocated: s,
				Moved:     q,
				HighWater: e.occ.HighWater(),
				Budget:    e.ledger.Remaining(),
				Nanos:     time.Since(roundStart).Nanoseconds(), //compactlint:allow determinism tracing timestamp, never read by the model
			})
		}
		if e.RoundHook != nil &&
			(e.RoundHookEvery <= 1 || done || (round+1)%e.RoundHookEvery == 0) {
			e.RoundHook(e.result())
		}
		if e.HeapHook != nil &&
			(e.RoundHookEvery <= 1 || done || (round+1)%e.RoundHookEvery == 0) {
			e.HeapHook(round, e.occ)
		}
		if done {
			return e.result(), nil
		}
	}
	return e.result(), fmt.Errorf("%w: run exceeded %d rounds", ErrMaxRounds, e.cfg.MaxRounds)
}

//compactlint:noalloc
func (e *Engine) doFrees(frees []heap.ObjectID) error {
	for _, id := range frees {
		s, err := e.occ.Remove(id)
		if err != nil {
			return fmt.Errorf("%w: free of non-live object %d (round %d): %w",
				ErrProgram, id, e.rounds, err)
		}
		e.frees++
		e.mgr.Free(id, s)
		if e.Tracer != nil {
			e.Tracer.Emit(obs.Event{Kind: obs.EvFree, Round: e.rounds, ID: id, Addr: s.Addr, Size: s.Size})
		}
	}
	return nil
}

//compactlint:noalloc
func (e *Engine) doAllocs(allocs []word.Size) error {
	for _, size := range allocs {
		if size <= 0 || size > e.cfg.N {
			return fmt.Errorf("%w: allocation size %d outside [1, %d] (round %d)",
				ErrProgram, size, e.cfg.N, e.rounds)
		}
		if e.cfg.Pow2Only && !word.IsPow2(size) {
			return fmt.Errorf("%w: allocation size %d is not a power of two (round %d)",
				ErrProgram, size, e.rounds)
		}
		if e.occ.Live()+size > e.cfg.M {
			return fmt.Errorf("%w: allocation of %d words would exceed live bound M=%d (live %d, round %d)",
				ErrProgram, size, e.cfg.M, e.occ.Live(), e.rounds)
		}
		// The new allocation counts toward the compaction quota the
		// manager may spend while serving it.
		e.ledger.RecordAlloc(size)
		id := e.nextID
		e.nextID++
		addr, err := e.mgr.Allocate(id, size, &e.mv)
		if err != nil {
			// %w on the manager's own error: retry policies and fault
			// tests classify failures with errors.Is through this wrap.
			return fmt.Errorf("%w: %s failed to allocate %d words (round %d): %w",
				ErrManager, e.mgr.Name(), size, e.rounds, err)
		}
		s := heap.Span{Addr: addr, Size: size}
		if s.End() > e.cfg.Capacity {
			return fmt.Errorf("%w: placement %v exceeds heap capacity %d (round %d)",
				ErrManager, s, e.cfg.Capacity, e.rounds)
		}
		if err := e.occ.Place(id, s); err != nil {
			return fmt.Errorf("%w: invalid placement by %s (round %d): %w",
				ErrManager, e.mgr.Name(), e.rounds, err)
		}
		e.allocs++
		if e.Tracer != nil {
			e.Tracer.Emit(obs.Event{Kind: obs.EvAlloc, Round: e.rounds, ID: id, Addr: addr, Size: size})
		}
		e.prog.Placed(id, s)
	}
	return nil
}

// Occupancy returns the engine's record of live placements, for
// visualization and post-run inspection. Callers must treat it as
// read-only.
func (e *Engine) Occupancy() *heap.Occupancy { return e.occ }

// Extent returns the end address of the highest currently-live word.
func (e *Engine) Extent() word.Addr { return e.occ.Extent() }

//compactlint:noalloc
func (e *Engine) result() Result {
	s, q := e.ledger.Snapshot()
	return Result{
		Program:   e.prog.Name(),
		Manager:   e.mgr.Name(),
		Config:    e.cfg,
		Rounds:    e.rounds,
		Allocs:    e.allocs,
		Frees:     e.frees,
		Moves:     e.moves,
		HighWater: e.occ.HighWater(),
		MaxLive:   e.occ.MaxLive(),
		Allocated: s,
		Moved:     q,
	}
}

// mover implements Mover with full validation against the engine's
// ground truth.
type mover struct{ e *Engine }

//compactlint:noalloc
func (m *mover) Move(id heap.ObjectID, to word.Addr) (bool, error) {
	e := m.e
	s, ok := e.occ.Lookup(id)
	if !ok {
		return false, fmt.Errorf("%w: move of non-live object %d", ErrManager, id)
	}
	if to+s.Size > e.cfg.Capacity {
		return false, fmt.Errorf("%w: move of object %d to %d exceeds capacity %d",
			ErrManager, id, to, e.cfg.Capacity)
	}
	if err := e.ledger.Move(s.Size); err != nil {
		return false, fmt.Errorf("%w: %w", ErrManager, err)
	}
	old, err := e.occ.Move(id, to)
	if err != nil {
		return false, fmt.Errorf("%w: %w", ErrManager, err)
	}
	e.moves++
	if e.Tracer != nil {
		e.Tracer.Emit(obs.Event{Kind: obs.EvMove, Round: e.rounds, ID: id, From: old.Addr, Addr: to, Size: s.Size})
	}
	ns := heap.Span{Addr: to, Size: s.Size}
	if e.prog.Moved(id, old, ns) {
		if _, err := e.occ.Remove(id); err != nil {
			panic(fmt.Sprintf("sim: freeing just-moved object %d: %v", id, err))
		}
		e.frees++
		if e.Tracer != nil {
			e.Tracer.Emit(obs.Event{Kind: obs.EvFree, Round: e.rounds, ID: id, Addr: to, Size: s.Size})
		}
		return true, nil
	}
	return false, nil
}

//compactlint:noalloc
func (m *mover) Remaining() word.Size { return m.e.ledger.Remaining() }

//compactlint:noalloc
func (m *mover) Lookup(id heap.ObjectID) (heap.Span, bool) {
	return m.e.occ.Lookup(id)
}
