package threshold

import (
	"testing"

	"compaction/internal/sim"
	"compaction/internal/word"
	"compaction/internal/workload"
)

func TestOptionsDefaults(t *testing.T) {
	m := New()
	m.Reset(sim.Config{M: 1 << 10, N: 16, C: 4, Capacity: 1 << 14})
	if m.chunkSize != 64 { // 4×n
		t.Fatalf("chunk size = %d, want 64", m.chunkSize)
	}
}

func TestDenseChunksNotEvacuated(t *testing.T) {
	// Fill one chunk at 50% density (above the 25% threshold): no
	// evacuation even with ample budget.
	cfg := sim.Config{M: 1 << 10, N: 16, C: 1, Pow2Only: true}
	prog := sim.NewScript("s", []sim.ScriptRound{
		{Allocs: []word.Size{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}},
		{FreeRefs: []int{0, 2, 4, 6, 8, 10, 12, 14}}, // every other: 50% density
		{},
	})
	e, err := sim.NewEngine(cfg, prog, New())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 {
		t.Fatalf("dense chunks evacuated: %d moves", res.Moves)
	}
}

func TestEvacuationStopsAtBudget(t *testing.T) {
	// c = 128: quota after 128 allocated words is 1 word — a single
	// 8-word survivor cannot be moved.
	cfg := sim.Config{M: 1 << 10, N: 16, C: 128, Pow2Only: true}
	prog := sim.NewScript("s", []sim.ScriptRound{
		{Allocs: []word.Size{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}},
		{FreeRefs: []int{0, 1, 2, 3, 4, 5, 6, 8}},
		{},
	})
	e, err := sim.NewEngine(cfg, prog, New())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 {
		t.Fatalf("evacuated beyond budget: %d moves", res.Moves)
	}
}

func TestScanPacing(t *testing.T) {
	// Scans only run after a chunk's worth of frees; a tiny free burst
	// must not trigger evacuation even of a sparse chunk.
	cfg := sim.Config{M: 1 << 10, N: 16, C: 1, Pow2Only: true}
	prog := sim.NewScript("s", []sim.ScriptRound{
		{Allocs: []word.Size{8, 8}},
		{FreeRefs: []int{0}}, // 8 words freed < chunk size 64
		{},
	})
	e, err := sim.NewEngine(cfg, prog, New())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 {
		t.Fatalf("scan pacing ignored: %d moves", res.Moves)
	}
}

func TestServesGenerationalWorkload(t *testing.T) {
	cfg := sim.Config{M: 1 << 12, N: 1 << 5, C: 16, Pow2Only: true}
	e, err := sim.NewEngine(cfg, workload.NewGenerational(7, 60), New())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocs == 0 {
		t.Fatal("no allocations")
	}
	// Generational traffic is friendly: waste should stay modest.
	if res.WasteFactor() > 3 {
		t.Fatalf("excessive waste %.3f on generational workload", res.WasteFactor())
	}
}
