package check

import (
	"testing"

	"compaction/internal/adversary/robson"
	"compaction/internal/core"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/trace"
	"compaction/internal/workload"

	// The oracle quantifies over every registered manager.
	_ "compaction/internal/heap/sharded"
	_ "compaction/internal/mm/bitmapff"
	_ "compaction/internal/mm/bpcompact"
	_ "compaction/internal/mm/buddy"
	_ "compaction/internal/mm/fits"
	_ "compaction/internal/mm/halffit"
	_ "compaction/internal/mm/improved"
	_ "compaction/internal/mm/markcompact"
	_ "compaction/internal/mm/rounding"
	_ "compaction/internal/mm/segregated"
	_ "compaction/internal/mm/threshold"
	_ "compaction/internal/mm/tlsf"
)

// cannedTraces records the three standing differential inputs: random
// churn, Robson's adversary, and the paper's P_F, each at small scale.
// Recording runs against first-fit, which never moves, so the replay
// is exact (adaptive frees never defer across rounds).
func cannedTraces(t testing.TB) map[string]*trace.Trace {
	t.Helper()
	mk := func(cfg sim.Config, prog sim.Program) *trace.Trace {
		tr, err := RecordTrace(cfg, prog, "first-fit")
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	return map[string]*trace.Trace{
		"random-churn": mk(
			sim.Config{M: 1 << 12, N: 1 << 6, C: 16},
			workload.NewRandom(workload.Config{Seed: 7, Rounds: 60, Dist: workload.Geometric})),
		"robson": mk(
			sim.Config{M: 1 << 12, N: 1 << 6, C: 16, Pow2Only: true},
			robson.New(0)),
		"pf-small": mk(
			sim.Config{M: 1 << 12, N: 1 << 5, C: 16, Pow2Only: true},
			core.NewPF(core.Options{})),
	}
}

// TestDifferentialOracleAllManagers is the acceptance gate of the
// verification subsystem: every registered manager must replay every
// canned trace with zero invariant violations and heap sizes within
// the documented envelope, and first-fit must match its twin
// bitmap-first-fit result for result.
func TestDifferentialOracleAllManagers(t *testing.T) {
	managers := mm.Names()
	if len(managers) < 10 {
		t.Fatalf("expected the full manager registry, got %v", managers)
	}
	for name, tr := range cannedTraces(t) {
		t.Run(name, func(t *testing.T) {
			rep := Differential(tr, managers, 0)
			if want := len(managers); len(rep.Cells) != want {
				t.Fatalf("ran %d cells, want %d", len(rep.Cells), want)
			}
			if !rep.Ok() {
				t.Fatalf("oracle failed:\n%s", rep)
			}
		})
	}
}

// TestDifferentialFlagsBackendDivergence checks the twin comparison
// actually fires: first-fit (B+tree-backed) and bitmap-first-fit
// (bitmap-backed) cells whose results differ must produce a mismatch,
// in either order and on legality alone, and twins that agree apart
// from the manager name must produce none.
func TestDifferentialFlagsBackendDivergence(t *testing.T) {
	tr := &trace.Trace{Program: "synthetic", M: 64, N: 8, C: 16}
	res := func(manager string, hw int64) Report {
		return Report{Result: sim.Result{Manager: manager, HighWater: hw, MaxLive: 10, Config: sim.Config{M: 64}}}
	}
	agree := []DiffCell{
		{Manager: "first-fit", Report: res("first-fit", 10)},
		{Manager: "bitmap-first-fit", Report: res("bitmap-first-fit", 10)},
	}
	if ms := crossCheck(tr, agree); len(ms) != 0 {
		t.Fatalf("agreeing twins flagged: %v", ms)
	}
	diverge := []DiffCell{
		{Manager: "bitmap-first-fit", Report: res("bitmap-first-fit", 20)},
		{Manager: "first-fit", Report: res("first-fit", 10)},
	}
	if ms := crossCheck(tr, diverge); len(ms) == 0 {
		t.Fatal("twin divergence not flagged")
	}
	failed := res("bitmap-first-fit", 10)
	failed.Err = sim.ErrManager
	if ms := crossCheck(tr, []DiffCell{agree[0], {Manager: "bitmap-first-fit", Report: failed}}); len(ms) == 0 {
		t.Fatal("twin legality divergence not flagged")
	}
	// Any other pair of managers may legitimately differ.
	other := []DiffCell{
		{Manager: "best-fit", Report: res("best-fit", 10)},
		{Manager: "worst-fit", Report: res("worst-fit", 20)},
	}
	if ms := crossCheck(tr, other); len(ms) != 0 {
		t.Fatalf("non-twins flagged: %v", ms)
	}
}

// TestDifferentialFlagsEnvelopeBreach: a heap size far beyond the
// documented bound must be reported even when the twins agree.
func TestDifferentialFlagsEnvelopeBreach(t *testing.T) {
	tr := &trace.Trace{Program: "synthetic", M: 64, N: 8, C: 16}
	res := sim.Result{HighWater: 64 * 1000, MaxLive: 10, Config: sim.Config{M: 64}}
	cells := []DiffCell{
		{Manager: "first-fit", Report: Report{Result: res}},
		{Manager: "bitmap-first-fit", Report: Report{Result: res}},
	}
	ms := crossCheck(tr, cells)
	if len(ms) == 0 {
		t.Fatal("envelope breach not flagged")
	}
}

// TestDifferentialFlagsHSBelowLive: HS < MaxLive is impossible in a
// correct engine and must be reported.
func TestDifferentialFlagsHSBelowLive(t *testing.T) {
	tr := &trace.Trace{Program: "synthetic", M: 64, N: 8, C: 16}
	res := sim.Result{HighWater: 5, MaxLive: 10, Config: sim.Config{M: 64}}
	cells := []DiffCell{{Manager: "x", Report: Report{Result: res}}}
	if ms := crossCheck(tr, cells); len(ms) == 0 {
		t.Fatal("HS below max live not flagged")
	}
}
