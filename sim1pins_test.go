package compaction_test

import (
	"testing"

	"compaction/internal/core"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// sim1Pin is one manager's exact outcome of P_F at BenchmarkSim1PF's
// configuration.
type sim1Pin struct {
	hs                   word.Addr
	rounds               int
	allocs, frees, moves int64
	moved                word.Size
}

// sim1Pins holds every registered manager's outcome of P_F at M=2^16,
// n=2^8, c=16 (Pow2Only). The run is deterministic, so any change to a
// figure is a change of behaviour: the benchmark gate allows HS/M 2%,
// and the behaviour lock runs only M=4096, where threshold evacuates
// far fewer chunks per scan than here.
var sim1Pins = map[string]sim1Pin{
	"aligned-first-fit":  {163840, 7, 90432, 67584, 0, 0},
	"best-fit":           {163645, 7, 90432, 67584, 0, 0},
	"bitmap-first-fit":   {163645, 7, 90432, 67584, 0, 0},
	"bp-compact":         {163648, 7, 90432, 67584, 0, 0},
	"buddy":              {163840, 7, 90432, 67584, 0, 0},
	"first-fit":          {163645, 7, 90432, 67584, 0, 0},
	"half-fit":           {163645, 7, 90432, 67584, 0, 0},
	"improved":           {145664, 7, 90449, 71041, 6529, 9732},
	"mark-compact":       {163645, 7, 90432, 67584, 0, 0},
	"next-fit":           {163645, 7, 90432, 67584, 0, 0},
	"rounded-segregated": {164864, 7, 90432, 67584, 0, 0},
	"segregated":         {164864, 7, 90432, 67584, 0, 0},
	"sharded-first-fit":  {163645, 7, 90432, 67584, 0, 0},
	"sharded-segregated": {164864, 7, 90432, 67584, 0, 0},
	"sharded-tlsf":       {163645, 7, 90432, 67584, 0, 0},
	"threshold":          {135229, 7, 90449, 74240, 6656, 8192},
	"tlsf":               {163645, 7, 90432, 67584, 0, 0},
	"worst-fit":          {163645, 7, 90432, 67584, 0, 0},
}

// TestSim1PFPins runs P_F against every registered manager at
// BenchmarkSim1PF's configuration and checks HS, rounds, allocations,
// frees, moves and moved words exactly.
func TestSim1PFPins(t *testing.T) {
	names := mm.Names()
	if len(names) != len(sim1Pins) {
		t.Errorf("%d managers registered, %d pinned", len(names), len(sim1Pins))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, ok := sim1Pins[name]
			if !ok {
				t.Fatalf("no pin for registered manager %q", name)
			}
			mgr, err := mm.New(name)
			if err != nil {
				t.Fatal(err)
			}
			e, err := sim.NewEngine(simConfig(), core.NewPF(core.Options{}), mgr)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := sim1Pin{r.HighWater, r.Rounds, r.Allocs, r.Frees, r.Moves, r.Moved}
			if got != want {
				t.Errorf("got {hs rounds allocs frees moves moved} = %v, want %v", got, want)
			}
		})
	}
}
