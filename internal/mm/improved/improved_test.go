package improved

import (
	"testing"

	"compaction/internal/sim"
	"compaction/internal/word"
	"compaction/internal/workload"
)

func TestAlignedPlacement(t *testing.T) {
	cfg := sim.Config{M: 1 << 10, N: 1 << 5, C: -1, Pow2Only: true}
	prog := sim.NewScript("s", []sim.ScriptRound{
		{Allocs: []word.Size{4, 32}},
	})
	e, err := sim.NewEngine(cfg, prog, New())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s1, _ := prog.PlacementOf(1)
	if !word.IsAligned(s1.Addr, 32) {
		t.Fatalf("32-word object at unaligned %d", s1.Addr)
	}
}

func TestDownwardCompactionShrinksExtent(t *testing.T) {
	cfg := sim.Config{M: 1 << 10, N: 1 << 5, C: 1, Pow2Only: true}
	prog := sim.NewScript("s", []sim.ScriptRound{
		{Allocs: []word.Size{32, 32, 32, 32, 32, 32}},
		{FreeRefs: []int{0, 1, 2, 3}},
		{}, // compaction
	})
	e, err := sim.NewEngine(cfg, prog, New())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The two survivors (at 128, 160) must have moved into [0, 64).
	s4, _ := prog.PlacementOf(4)
	s5, _ := prog.PlacementOf(5)
	if s4.Addr >= 64 || s5.Addr >= 64 {
		t.Fatalf("survivors not compacted down: %v %v", s4, s5)
	}
	if res.Moves != 2 {
		t.Fatalf("moves = %d, want 2", res.Moves)
	}
}

func TestStopsWhenBudgetExhausted(t *testing.T) {
	// c = 64: after 6·32 = 192 allocated words the quota is 3 words —
	// not even one 32-word move. No compaction may happen.
	cfg := sim.Config{M: 1 << 10, N: 1 << 5, C: 64, Pow2Only: true}
	prog := sim.NewScript("s", []sim.ScriptRound{
		{Allocs: []word.Size{32, 32, 32, 32, 32, 32}},
		{FreeRefs: []int{0, 1, 2, 3}},
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
		t.Fatalf("moved %d times with insufficient budget", res.Moves)
	}
}

func TestBeatsNonMovingOnSawtooth(t *testing.T) {
	runWith := func(mgr sim.Manager, c int64) float64 {
		cfg := sim.Config{M: 1 << 12, N: 1 << 5, C: c, Pow2Only: true}
		e, err := sim.NewEngine(cfg, workload.NewSawtooth(3, 6), mgr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.WasteFactor()
	}
	withCompaction := runWith(New(), 4)
	without := runWith(New(), -1)
	if withCompaction > without {
		t.Fatalf("compaction made things worse: %.3f vs %.3f", withCompaction, without)
	}
}
