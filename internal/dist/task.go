// Package dist scales sweeps out across processes: a coordinator
// shards a sweep grid into in-memory leases, and worker processes pull
// those leases over NDJSON pipes or localhost HTTP, run the cells
// through the existing sweep.RunOpts machinery, and commit results,
// which the coordinator records in an epoch-fenced resume.Ledger. The
// design is lease/fence all the way down:
//
//   - Every claim carries a monotonically increasing fencing token.
//     A worker that dies, hangs, or partitions simply stops renewing;
//     after the heartbeat timeout the coordinator expires the lease
//     and hands the cell to another worker under a strictly larger
//     token. If the original worker was merely slow — a zombie — its
//     late commit carries the superseded token and is rejected.
//   - Commits are idempotent: the first delivery settles the cell,
//     duplicates are fenced. The merged grid is therefore
//     byte-identical to a single-process run no matter how many
//     workers died, hung, or double-delivered along the way (cells
//     are deterministic, so every worker computes the same result).
//   - Failure has one policy, the in-process sweep's: every grant
//     carries the grid's Retries and CellTimeout, the worker retries a
//     failing cell where it runs, and a cell still failing settles as
//     the typed sweep.CellError hole a single-process run would write.
//     A hole is never leased again.
//   - The ledger, a checkpoint journal of commits, makes the
//     coordinator itself restartable: commits are replayed on boot
//     (holes are not recorded, so they run again), writer epochs fence
//     a predecessor coordinator that does not know it is dead, and
//     tokens are scoped by the epoch, so a successor's exceed every
//     token its predecessor issued.
package dist

import (
	"fmt"

	"compaction/internal/catalog"
	"compaction/internal/sim"
	"compaction/internal/sweep"
)

// Task is one leased unit of work: everything a separate process
// needs to reconstruct and run a sweep cell. Program identity travels
// as the catalog name plus its parameters — the same resolution path
// compactsim's -adversary flag and compactd job specs use — so a
// worker can never drift from what the coordinator fingerprinted.
type Task struct {
	// Cell is the cell's index in the grid.
	Cell int `json:"cell"`
	// Label and Manager mirror the sweep cell.
	Label   string `json:"label"`
	Manager string `json:"manager"`
	// Config is the full model configuration.
	Config sim.Config `json:"config"`
	// Program names the catalog program; Seed, Rounds and Ell are its
	// parameters.
	Program string `json:"program"`
	Seed    int64  `json:"seed"`
	Rounds  int    `json:"rounds"`
	Ell     int    `json:"ell,omitempty"`
}

// MakeCell reconstructs the runnable sweep cell on the worker side.
func (t Task) MakeCell() (sweep.Cell, error) {
	mk, _, err := catalog.New(t.Program, catalog.Params{Seed: t.Seed, Rounds: t.Rounds, Ell: t.Ell})
	if err != nil {
		return sweep.Cell{}, fmt.Errorf("dist: task %d: %w", t.Cell, err)
	}
	// Config (including Pow2Only) comes verbatim from the coordinator:
	// it is part of the cell fingerprint, so recomputing any of it here
	// could only introduce drift.
	return sweep.Cell{Label: t.Label, Config: t.Config, Manager: t.Manager, Program: mk}, nil
}

// GridSpec describes a distributable sweep grid: the same inputs
// compactsim's -sweep mode takes, in serializable form.
type GridSpec struct {
	// Program, Seed, Rounds, Ell identify the program per cell.
	Program string
	Seed    int64
	Rounds  int
	Ell     int
	// M, N, Shards shape the base model configuration.
	M, N   int64
	Shards int
	// Cs are the compaction bounds; Managers the manager names. The
	// grid is their cross product, c-major — exactly sweep.Grid's
	// order, so a distributed run and a single-process run number
	// their cells identically.
	Cs       []int64
	Managers []string
}

// Expand builds the in-process cells and the wire tasks, index-aligned.
func (g GridSpec) Expand() ([]sweep.Cell, []Task, error) {
	mk, pow2, err := catalog.New(g.Program, catalog.Params{Seed: g.Seed, Rounds: g.Rounds, Ell: g.Ell})
	if err != nil {
		return nil, nil, fmt.Errorf("dist: %w", err)
	}
	base := sim.Config{M: g.M, N: g.N, Pow2Only: pow2, Shards: g.Shards}
	cells := sweep.Grid(base, g.Cs, g.Managers, g.Program, mk)
	tasks := make([]Task, len(cells))
	for i, c := range cells {
		tasks[i] = Task{
			Cell: i, Label: c.Label, Manager: c.Manager, Config: c.Config,
			Program: g.Program, Seed: g.Seed, Rounds: g.Rounds, Ell: g.Ell,
		}
	}
	return cells, tasks, nil
}

// Params renders the program-identity string bound into the ledger
// header — the same format compactsim binds into checkpoint journals,
// so the two fault-tolerance paths refuse each other's stale state
// the same way.
func (g GridSpec) Params() string {
	return fmt.Sprintf("adv=%s seed=%d rounds=%d ell=%d", g.Program, g.Seed, g.Rounds, g.Ell)
}
