package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"

	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// panicProg blows up mid-run; a sweep must contain the blast to its
// own cell.
type panicProg struct{ step int }

func (p *panicProg) Name() string { return "panic" }
func (p *panicProg) Step(*sim.View) ([]heap.ObjectID, []word.Size, bool) {
	p.step++
	if p.step > 1 {
		panic("program exploded")
	}
	return nil, []word.Size{8}, false
}
func (p *panicProg) Placed(heap.ObjectID, heap.Span)                {}
func (p *panicProg) Moved(heap.ObjectID, heap.Span, heap.Span) bool { return false }

func okProg() sim.Program {
	return sim.NewScript("ok", []sim.ScriptRound{{Allocs: []word.Size{8, 8}}})
}

func TestRunEdgeCases(t *testing.T) {
	base := sim.Config{M: 1 << 10, N: 1 << 5, C: 8}
	tests := []struct {
		name        string
		cells       []Cell
		parallelism int
		wantErr     []string // per cell: substring of Err, "" = success
	}{
		{
			name:        "zero cells",
			cells:       nil,
			parallelism: 4,
			wantErr:     nil,
		},
		{
			name:        "zero cells zero parallelism",
			cells:       nil,
			parallelism: 0,
			wantErr:     nil,
		},
		{
			name: "parallelism far beyond cell count",
			cells: []Cell{
				{Label: "a", Config: base, Manager: "first-fit", Program: okProg},
				{Label: "b", Config: base, Manager: "best-fit", Program: okProg},
			},
			parallelism: 1 << 10,
			wantErr:     []string{"", ""},
		},
		{
			name: "unregistered manager fails only its cell",
			cells: []Cell{
				{Label: "bad", Config: base, Manager: "no-such-manager", Program: okProg},
				{Label: "good", Config: base, Manager: "first-fit", Program: okProg},
			},
			parallelism: 2,
			wantErr:     []string{"unknown manager", ""},
		},
		{
			name: "program error mid-run fails only its cell",
			cells: []Cell{
				{Label: "overM", Config: sim.Config{M: 10, N: 8, C: 8}, Manager: "first-fit",
					Program: func() sim.Program {
						return sim.NewScript("overM", []sim.ScriptRound{{Allocs: []word.Size{8, 8}}})
					}},
				{Label: "good", Config: base, Manager: "first-fit", Program: okProg},
			},
			parallelism: 1,
			wantErr:     []string{"live bound", ""},
		},
		{
			name: "nil program constructor",
			cells: []Cell{
				{Label: "nil", Config: base, Manager: "first-fit", Program: nil},
				{Label: "good", Config: base, Manager: "first-fit", Program: okProg},
			},
			parallelism: 2,
			wantErr:     []string{"no program constructor", ""},
		},
		{
			name: "panicking program constructor",
			cells: []Cell{
				{Label: "boom", Config: base, Manager: "first-fit",
					Program: func() sim.Program { panic("constructor exploded") }},
				{Label: "good", Config: base, Manager: "first-fit", Program: okProg},
			},
			parallelism: 2,
			wantErr:     []string{"panicked", ""},
		},
		{
			name: "panicking program step",
			cells: []Cell{
				{Label: "boom", Config: base, Manager: "first-fit",
					Program: func() sim.Program { return &panicProg{} }},
				{Label: "good", Config: base, Manager: "first-fit", Program: okProg},
			},
			parallelism: 2,
			wantErr:     []string{"panicked", ""},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			outs, err := RunOpts(context.Background(), tc.cells, Options{Parallelism: tc.parallelism})
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != len(tc.cells) {
				t.Fatalf("got %d outcomes for %d cells", len(outs), len(tc.cells))
			}
			for i, want := range tc.wantErr {
				switch {
				case want == "" && outs[i].Err != nil:
					t.Errorf("cell %d: unexpected error %v", i, outs[i].Err)
				case want != "" && outs[i].Err == nil:
					t.Errorf("cell %d: error containing %q not reported", i, want)
				case want != "" && !strings.Contains(outs[i].Err.Error(), want):
					t.Errorf("cell %d: error %v does not mention %q", i, outs[i].Err, want)
				}
			}
		})
	}
}

// TestRunProgramErrorIsErrProgram pins the error identity: a sweep
// outcome for a misbehaving program must still satisfy errors.Is so
// callers can triage cell failures.
func TestRunProgramErrorIsErrProgram(t *testing.T) {
	outs, err := RunOpts(context.Background(), []Cell{{
		Label: "overM", Config: sim.Config{M: 10, N: 8, C: 8}, Manager: "first-fit",
		Program: func() sim.Program {
			return sim.NewScript("overM", []sim.ScriptRound{{Allocs: []word.Size{8, 8}}})
		},
	}}, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outs[0].Err, sim.ErrProgram) {
		t.Fatalf("want ErrProgram through the sweep layer, got %v", outs[0].Err)
	}
}
