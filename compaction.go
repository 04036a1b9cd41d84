// Package compaction is a reproduction of Cohen & Petrank,
// "Limitations of Partial Compaction: Towards Practical Bounds"
// (PLDI 2013): the theory of how much heap space a memory manager
// needs when it is only allowed to compact (move) a bounded fraction
// 1/c of the space the program has allocated.
//
// The package exposes three layers:
//
//   - Closed-form bounds: LowerBound (Theorem 1's waste factor h),
//     UpperBound (Theorem 2), plus Robson's classical compaction-free
//     bounds and the earlier Bendersky–Petrank bounds, for comparison
//     curves.
//   - A simulation framework: programs (adversaries and synthetic
//     workloads) interact with memory managers in rounds of
//     de-allocation → compaction → allocation, with the engine
//     enforcing the model (live-space bound M, object sizes ≤ n,
//     compaction budget 1/c, no overlaps).
//   - The paper's artifacts: the adversary P_F that forces every
//     c-partial manager to waste h·M words, Robson's adversary P_R, a
//     reconstruction of Bendersky–Petrank's P_W, and a portfolio of
//     memory managers (first/best/next/worst-fit, buddy, segregated,
//     and three compacting designs) to run them against.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every figure.
package compaction

import (
	"compaction/internal/adversary/pw"
	"compaction/internal/adversary/robson"
	"compaction/internal/bounds"
	"compaction/internal/budget"
	"compaction/internal/core"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
	"compaction/internal/workload"

	// Register every memory manager with the registry so Managers()
	// and NewManager() see the full portfolio.
	_ "compaction/internal/mm/all"
)

// Core model types, re-exported from the simulation framework.
type (
	// Config holds the model parameters of a run: M (live-space
	// bound), N (largest object), C (compaction bound), and the P2
	// restriction.
	Config = sim.Config
	// Result summarizes a finished run; Result.WasteFactor() is HS/M.
	Result = sim.Result
	// Program is the allocating side of the interaction.
	Program = sim.Program
	// Manager is the memory-management side.
	Manager = sim.Manager
	// BoundParams parameterizes the closed-form bounds.
	BoundParams = bounds.Params
	// PFOptions configures the paper's adversary (ablation switches,
	// fixed density exponent).
	PFOptions = core.Options
	// WorkloadConfig parameterizes the synthetic random workloads.
	WorkloadConfig = workload.Config
)

// NoCompaction is the Config.C value for managers that never move
// objects (Robson's classical setting).
const NoCompaction = budget.NoCompaction

// Size and address units (words).
type (
	// Size is an object size or span length in words.
	Size = word.Size
	// Addr is a word address in the simulated heap.
	Addr = word.Addr
)

// LowerBound returns Theorem 1's waste factor h(M, n, c), maximized
// over the density exponent ℓ, together with the maximizing ℓ. Every
// c-partial memory manager needs a heap of at least h·M words against
// the adversary P_F.
func LowerBound(p BoundParams) (h float64, ell int, err error) {
	return bounds.Theorem1(p)
}

// LowerBoundWords returns ⌈M·h⌉ for Theorem 1.
func LowerBoundWords(p BoundParams) (Size, error) {
	return bounds.Theorem1Words(p)
}

// UpperBound returns Theorem 2's waste factor: a heap of that multiple
// of M suffices for some c-partial manager against every program in
// P(M, n). Valid for c > ½·log2(n).
func UpperBound(p BoundParams) (float64, error) {
	return bounds.Theorem2(p)
}

// RobsonBound returns Robson's tight waste factor for compaction-free
// managers on P2(M, n): (M(½·log2 n + 1) − n + 1)/M.
func RobsonBound(m, n Size) float64 {
	return bounds.RobsonLower(m, n)
}

// PreviousUpperBound returns the best upper bound known before the
// paper: min(Robson's rounding bound, (c+1)·M), as a waste factor.
func PreviousUpperBound(p BoundParams) float64 {
	return bounds.PreviousUpper(p)
}

// PreviousLowerBound returns the Bendersky–Petrank (POPL 2011) lower
// bound as a waste factor; below 1 it is vacuous (the paper's Figure 1
// shows it is vacuous at practical parameters).
func PreviousLowerBound(p BoundParams) float64 {
	return bounds.BPLower(p)
}

// BudgetForTarget answers the inverse sizing question: given a heap
// budget of targetH×M, the largest compaction bound c (weakest
// compaction capability) for which Theorem 1 still permits such a
// guarantee. See bounds.BudgetForTarget for the precise contract.
func BudgetForTarget(m, n Size, targetH float64) (int64, error) {
	return bounds.BudgetForTarget(m, n, targetH, 0)
}

// Managers lists the registered memory managers.
func Managers() []string { return mm.Names() }

// NewManager constructs a registered manager by name.
func NewManager(name string) (Manager, error) { return mm.New(name) }

// NewPF builds the paper's adversary P_F (Algorithm 1). Run it with a
// Pow2Only Config whose (M, N, C) satisfy BoundParams.Validate.
func NewPF(opts PFOptions) Program { return core.NewPF(opts) }

// NewRobson builds Robson's adversary P_R (Algorithm 2); steps <= 0
// sizes the run from the engine config.
func NewRobson(steps int) Program { return robson.New(steps) }

// NewPW builds the reconstructed Bendersky–Petrank adversary P_W.
func NewPW() Program { return pw.New() }

// NewRandomWorkload builds a synthetic allocate/free program.
func NewRandomWorkload(cfg WorkloadConfig) Program { return workload.NewRandom(cfg) }

// NewRampDown builds the classic two-phase fragmentation workload.
func NewRampDown(seed int64) Program { return workload.NewRampDown(seed) }

// Run executes one program against one manager under cfg and returns
// the result. The engine validates every action of both parties.
func Run(cfg Config, prog Program, mgr Manager) (Result, error) {
	e, err := sim.NewEngine(cfg, prog, mgr)
	if err != nil {
		return Result{}, err
	}
	return e.Run()
}
