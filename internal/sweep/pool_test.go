package sweep

import (
	"context"
	"testing"

	"compaction/internal/sim"
	"compaction/internal/word"
)

// TestWorkerEngineReuse pins the worker-pool semantics introduced with
// per-worker engine reuse: a single worker that runs many cells
// back-to-back (parallelism 1 forces maximal reuse) must produce
// exactly the outcomes of a fully parallel sweep with one engine per
// cell, and a panic mid-sequence must discard only that worker's
// engine — the following cells on the same worker start clean.
func TestWorkerEngineReuse(t *testing.T) {
	base := sim.Config{M: 1 << 10, N: 1 << 5, C: 8}
	cells := []Cell{
		{Label: "a", Config: base, Manager: "first-fit", Program: okProg},
		{Label: "boom", Config: base, Manager: "first-fit",
			Program: func() sim.Program { return &panicProg{} }},
		{Label: "b", Config: base, Manager: "best-fit", Program: okProg},
		// A different configuration exercises Engine.Reset across
		// configs, not just across programs.
		{Label: "c", Config: sim.Config{M: 1 << 8, N: 1 << 4, C: 4}, Manager: "first-fit",
			Program: func() sim.Program {
				return sim.NewScript("c", []sim.ScriptRound{{Allocs: []word.Size{4, 4, 4}}})
			}},
	}
	serial, err := RunOpts(context.Background(), cells, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunOpts(context.Background(), cells, Options{Parallelism: len(cells)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if i == 1 {
			for _, outs := range [][]Outcome{serial, parallel} {
				if outs[i].Err == nil {
					t.Fatalf("cell %d: panic not reported", i)
				}
			}
			continue
		}
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("cell %d failed: serial=%v parallel=%v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Result != parallel[i].Result {
			t.Errorf("cell %d: reused-engine result %+v differs from fresh-engine result %+v",
				i, serial[i].Result, parallel[i].Result)
		}
	}
}
