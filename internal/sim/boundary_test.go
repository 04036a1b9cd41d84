package sim

import (
	"errors"
	"testing"

	"compaction/internal/word"
)

// TestValidateBoundaries pins the exact edges of Config.Validate: the
// degenerate-but-legal M == N case and the first illegal value on
// each side of every boundary.
func TestValidateBoundaries(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"M equals N", Config{M: 64, N: 64, C: 8}, true},
		{"M one below N", Config{M: 63, N: 64, C: 8}, false},
		{"N is one word", Config{M: 64, N: 1, C: 8}, true},
		{"c at NoCompaction", Config{M: 64, N: 8, C: -1}, true},
		{"c below NoCompaction", Config{M: 64, N: 8, C: -2}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("validated: %+v", tc.cfg)
			}
		})
	}
}

func TestWithDefaultsFillsZeroes(t *testing.T) {
	c := Config{M: 1 << 10, N: 1 << 5}.withDefaults()
	if c.Capacity != (1<<10)*DefaultCapacityFactor {
		t.Fatalf("default capacity = %d", c.Capacity)
	}
	if c.MaxRounds != 1<<20 {
		t.Fatalf("default max rounds = %d", c.MaxRounds)
	}
	explicit := Config{M: 1 << 10, N: 1 << 5, Capacity: 123, MaxRounds: 7}.withDefaults()
	if explicit.Capacity != 123 || explicit.MaxRounds != 7 {
		t.Fatalf("explicit values overwritten: %+v", explicit)
	}
}

// TestCapacityExactFit: a heap capacity exactly equal to the bump
// frontier succeeds, one word less fails with ErrManager — the
// boundary sits between them, not off by one.
func TestCapacityExactFit(t *testing.T) {
	prog := func() *Script {
		return NewScript("p", []ScriptRound{{Allocs: []word.Size{8, 8}}})
	}
	exact := cfg()
	exact.Capacity = 16
	e, err := NewEngine(exact, prog(), &bumpManager{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("exact-fit capacity rejected: %v", err)
	}
	tight := cfg()
	tight.Capacity = 15
	e2, err := NewEngine(tight, prog(), &bumpManager{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(); !errors.Is(err, ErrManager) {
		t.Fatalf("capacity 15 for 16 words: want ErrManager, got %v", err)
	}
}

// TestMaxRoundsExhaustion: a run that hits the round limit surfaces
// ErrMaxRounds, which is distinguishable from — but still is — a
// program error, and the partial result is preserved.
func TestMaxRoundsExhaustion(t *testing.T) {
	c := cfg()
	c.MaxRounds = 1
	prog := NewScript("p", []ScriptRound{
		{Allocs: []word.Size{8}},
		{Allocs: []word.Size{8}},
		{Allocs: []word.Size{8}},
	})
	e, err := NewEngine(c, prog, &bumpManager{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("want ErrMaxRounds, got %v", err)
	}
	if !errors.Is(err, ErrProgram) {
		t.Fatalf("ErrMaxRounds must remain a program error, got %v", err)
	}
	if res.Rounds != 1 || res.Allocs != 1 {
		t.Fatalf("partial result lost: %+v", res)
	}
	// A program that finishes within the limit must not trip it.
	one := NewScript("p", []ScriptRound{{Allocs: []word.Size{8}}})
	e2, _ := NewEngine(c, one, &bumpManager{})
	if _, err := e2.Run(); err != nil {
		t.Fatalf("run within the limit failed: %v", err)
	}
}
