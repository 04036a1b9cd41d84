package check

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"compaction/internal/sim"
	"compaction/internal/trace"
	"compaction/internal/word"
)

// TestShrinkMinimizesToWitness: a predicate that only needs one
// allocation of a marker size must shrink a big decoded trace down to
// (close to) that single allocation.
func TestShrinkMinimizesToWitness(t *testing.T) {
	data := append(bytes.Repeat([]byte{0x42, 0x00, 0xb3, 0x55}, 20), 0x30+17-1)
	tr := DecodeTrace(data)
	hasMarker := func(tr *trace.Trace) bool {
		for _, rd := range tr.Rounds {
			for _, s := range rd.AllocSizes {
				if s == 17 {
					return true
				}
			}
		}
		return false
	}
	if !hasMarker(tr) {
		t.Fatal("setup: marker allocation missing from decoded trace")
	}
	min := Shrink(tr, hasMarker)
	if !hasMarker(min) {
		t.Fatal("shrinker lost the failure")
	}
	if len(min.Rounds) != 1 || len(min.Rounds[0].AllocSizes) != 1 || len(min.Rounds[0].FreeOrdinals) != 0 {
		t.Fatalf("not minimal: %+v", min.Rounds)
	}
}

// TestShrinkKeepsTracesReplayable: every candidate the shrinker
// produces must stay internally consistent — replaying the minimized
// trace must never hit a program violation the original did not have.
func TestShrinkKeepsTracesReplayable(t *testing.T) {
	data := bytes.Repeat([]byte{0x42, 0x60, 0x00, 0xc0, 0x42, 0xb1}, 40)
	tr := DecodeTrace(data)
	tr.C = 8
	// Fail when first-fit's heap reaches at least half the original
	// high-water mark — a predicate that replays candidates for real.
	base, err := RunTrace(tr, "first-fit")
	if err != nil || base.Err != nil {
		t.Fatalf("setup: %v / %v", err, base.Err)
	}
	threshold := base.Result.HighWater / 2
	replays := 0
	failing := func(cand *trace.Trace) bool {
		replays++
		rep, err := RunTrace(cand, "first-fit")
		if err != nil {
			return false
		}
		if errors.Is(rep.Err, sim.ErrProgram) {
			t.Fatalf("shrink candidate became an illegal program: %v", rep.Err)
		}
		return rep.Err == nil && rep.Result.HighWater >= threshold
	}
	min := Shrink(tr, failing)
	if replays < 2 {
		t.Fatalf("predicate only ran %d times", replays)
	}
	if !failing(min) {
		t.Fatal("minimized trace no longer fails")
	}
	if allocCount(min) > allocCount(tr) {
		t.Fatalf("shrinker grew the trace: %d -> %d allocs", allocCount(tr), allocCount(min))
	}
}

func allocCount(tr *trace.Trace) int {
	n := 0
	for _, rd := range tr.Rounds {
		n += len(rd.AllocSizes)
	}
	return n
}

// TestShrinkPassingTraceUnchanged: traces that do not fail come back
// untouched.
func TestShrinkPassingTraceUnchanged(t *testing.T) {
	tr := DecodeTrace([]byte{0x42, 0x43, 0x00, 0x42})
	got := Shrink(tr, func(*trace.Trace) bool { return false })
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("passing trace modified: %+v", got)
	}
}

// TestDropRoundsRenumbers pins the ordinal bookkeeping: dropping a
// round must delete frees of its allocations and shift later ordinals.
func TestDropRoundsRenumbers(t *testing.T) {
	tr := &trace.Trace{M: DecodeM, N: DecodeN, Rounds: []trace.Round{
		{AllocSizes: []word.Size{4, 4}},                           // ordinals 0, 1
		{AllocSizes: []word.Size{8}},                              // ordinal 2
		{FreeOrdinals: []int64{1, 2}, AllocSizes: []word.Size{2}}, // ordinal 3
	}}
	got := dropRounds(tr, 1, 2)
	want := []trace.Round{
		{AllocSizes: []word.Size{4, 4}},
		{FreeOrdinals: []int64{1}, AllocSizes: []word.Size{2}},
	}
	if !reflect.DeepEqual(got.Rounds, want) {
		t.Fatalf("dropRounds(1,2):\n got %+v\nwant %+v", got.Rounds, want)
	}
	got = dropAlloc(tr, 0, 0)
	want = []trace.Round{
		{AllocSizes: []word.Size{4}}, // old ordinal 1 -> 0
		{AllocSizes: []word.Size{8}}, // old 2 -> 1
		{FreeOrdinals: []int64{0, 1}, AllocSizes: []word.Size{2}},
	}
	if !reflect.DeepEqual(got.Rounds, want) {
		t.Fatalf("dropAlloc(0,0):\n got %+v\nwant %+v", got.Rounds, want)
	}
}

// TestArtifactRoundtrip: minimized traces persist and reload intact.
func TestArtifactRoundtrip(t *testing.T) {
	tr := DecodeTrace(bytes.Repeat([]byte{0x42, 0xb0, 0x00}, 20))
	tr.C = 4
	path := filepath.Join(t.TempDir(), "min.json")
	if err := WriteArtifact(path, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("artifact roundtrip diverged")
	}
}
