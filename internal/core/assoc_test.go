package core

import (
	"slices"
	"testing"

	"compaction/internal/heap"
)

// testTable returns an empty chunk table at the given step and ℓ,
// with its own object records.
func testTable(step, ell int) *chunkTable {
	return newChunkTable(step, ell, &objectTable{})
}

// obj records object id at [addr, addr+size) in the table's records.
func obj(tab *chunkTable, id heap.ObjectID, addr, size int64, live bool) *object {
	o := tab.objs.place(id, heap.Span{Addr: addr, Size: size})
	o.live = live
	return o
}

// associateFull records a whole-object association.
func (t *chunkTable) associateFull(id heap.ObjectID, d int64) {
	t.addEntry(d, entry{id: id, other: -1, p: full})
}

// setE puts chunk d into E.
func setE(tab *chunkTable, d int64) {
	tab.grow(d)
	tab.inE[d] = true
}

// TestFigure4Scenario reproduces the paper's Figure 4: chunks of size
// 8 with density threshold 1/4 (ℓ=2, so each chunk must keep 2
// associated words). O1 (2 words, chunk C7), O2 (4 words, halves on C7
// and C8), O3 (2 words, C9). The program can free O1 — the density of
// C7 stays 1/4 via O2's half — but nothing else.
func TestFigure4Scenario(t *testing.T) {
	tab := testTable(3, 2)         // chunk size 8, threshold 2^(3-2) = 2
	obj(tab, 1, 56, 2, true)       // inside C7 = [56,64)
	o2 := obj(tab, 2, 60, 4, true) // straddles C7/C8
	o3 := obj(tab, 3, 72, 2, true) // inside C9
	tab.associateFull(1, 7)
	tab.associateHalves(2, 7, 8)
	tab.associateFull(3, 9)

	freed := tab.trim(nil)

	if len(freed) != 1 || freed[0] != 1 {
		t.Fatalf("freed %v, want exactly [1] (O1)", freed)
	}
	if o2.live != true || o3.live != true {
		t.Fatalf("O2/O3 must stay live: %v %v", o2.live, o3.live)
	}
	if tab.sum(7) != 2 || tab.sum(8) != 2 || tab.sum(9) != 2 {
		t.Fatalf("post-trim sums: C7=%d C8=%d C9=%d, want 2 each",
			tab.sum(7), tab.sum(8), tab.sum(9))
	}
}

func TestHalfTransferMergesToFull(t *testing.T) {
	// A chunk rich enough to give up its half: the half transfers to
	// the other chunk, merging into a full association there, and the
	// receiving chunk is re-evaluated.
	tab := testTable(3, 2) // threshold 2
	obj(tab, 1, 0, 4, true)
	o := obj(tab, 2, 6, 4, true) // halves on C0 [0,8) and C1 [8,16)
	obj(tab, 3, 10, 4, true)
	tab.associateFull(1, 0)
	tab.associateHalves(2, 0, 1)
	tab.associateFull(3, 1)

	freed := tab.trim(nil)

	// C0: sum 6, threshold 2. Largest first: filler(4) freed (sum 2),
	// half o cannot go (0 < 2). C1: sum 2+4=6: free big (4) leaves 2...
	// Order of chunk processing is C0 then C1; exact outcomes:
	// C0: free filler. C1: entries big(4), half-o(2): free big → sum 2.
	want := map[heap.ObjectID]bool{1: true, 3: true}
	for _, id := range freed {
		if !want[id] {
			t.Fatalf("unexpected free of %d (freed=%v)", id, freed)
		}
		delete(want, id)
	}
	if len(want) != 0 {
		t.Fatalf("missing frees: %v (freed=%v)", want, freed)
	}
	if !o.live {
		t.Fatal("straddling object freed though both chunks need it")
	}
}

func TestHalfFreeTransfersAndCascades(t *testing.T) {
	// C0 holds a big object + a half; freeing the half transfers the
	// object fully to C1, where it can then be freed outright because
	// C1 is also rich.
	tab := testTable(4, 2)         // chunk size 16, threshold 4
	a := obj(tab, 1, 0, 16, true)  // fills C0
	o := obj(tab, 2, 14, 4, true)  // halves on C0, C1
	b := obj(tab, 3, 16, 16, true) // fills C1 (the engine would reject this
	// overlap, but the table is pure bookkeeping and the scenario
	// isolates the cascade logic)
	tab.associateFull(1, 0)
	tab.associateHalves(2, 0, 1)
	tab.associateFull(3, 1)

	_ = tab.trim(nil)

	// C0: sum 18 ≥ 4. Free a (16) → sum 2? No: 18−16=2 < 4, so a stays.
	// Free half o: 18−2=16 ≥ 4 → transfer o to C1 as full.
	// Re-evaluate C1: sum 16+4=20: free b? 20−16=4 ≥ 4 yes. Then o:
	// 4−4=0 < 4, stays.
	if o.live {
		// o ended fully associated with C1; it may be freed there if
		// budget allows: 20−16(b freed)−4 = 0 < 4, so o must be live.
		_ = o
	}
	if a.live == false {
		t.Fatal("a should not be freeable (C0 would drop below threshold)")
	}
	if b.live == true {
		t.Fatal("b should have been freed from the re-evaluated C1")
	}
	if got, ok := tab.entry(1, 2); !ok || got != full {
		t.Fatalf("o should be fully associated with C1, got %v ok=%v", got, ok)
	}
	if tab.sum(0) != 16 || tab.sum(1) != 4 {
		t.Fatalf("sums after cascade: C0=%d C1=%d", tab.sum(0), tab.sum(1))
	}
}

func TestDoubleStepMergesChunksAndHalves(t *testing.T) {
	tab := testTable(3, 2)
	obj(tab, 1, 6, 4, true) // halves on C0, C1 (size-8 chunks)
	obj(tab, 2, 17, 2, true)
	tab.associateHalves(1, 0, 1)
	tab.associateFull(2, 2)
	setE(tab, 5)

	tab.doubleStep()

	if tab.step != 4 || tab.chunkSize() != 16 {
		t.Fatalf("step=%d size=%d", tab.step, tab.chunkSize())
	}
	// C0+C1 merge into new chunk 0; the two halves of o must merge to
	// a full entry.
	if p, ok := tab.entry(0, 1); !ok || p != full {
		t.Fatalf("merged halves: got %v ok=%v, want full", p, ok)
	}
	if tab.sum(0) != 4 {
		t.Fatalf("sum(0) = %d, want 4", tab.sum(0))
	}
	// solo moves from chunk 2 to chunk 1.
	if p, ok := tab.entry(1, 2); !ok || p != full {
		t.Fatalf("solo not in merged chunk 1: %v %v", p, ok)
	}
	// E is cleared at step change.
	if slices.Contains(tab.inE, true) {
		t.Fatalf("E not cleared: %v", tab.inE)
	}
}

func TestPlaceNewResetsChunksAndE(t *testing.T) {
	tab := testTable(3, 2)
	obj(tab, 1, 8, 2, false) // compacted-away remnant on C1
	tab.associateFull(1, 1)
	obj(tab, 2, 6, 32, true) // covers C1, C2, C3 fully
	tab.placeNew(2, 1, 2, 3)

	if p, ok := tab.entry(1, 2); !ok || p != half {
		t.Fatalf("D1 association: %v %v", p, ok)
	}
	if p, ok := tab.entry(3, 2); !ok || p != half {
		t.Fatalf("D3 association: %v %v", p, ok)
	}
	if len(tab.set(2)) != 0 {
		t.Fatalf("D2 should be empty, has %d entries", len(tab.set(2)))
	}
	if !tab.inE[2] {
		t.Fatal("D2 not in E")
	}
	if _, ok := tab.entry(1, 1); ok {
		t.Fatal("dead remnant survived placeNew")
	}
	// sums: each half of the 32-word object contributes 16, capped by
	// the chunk function at chunk size 8 — the cap lives in potential(),
	// sum() reports the raw association.
	if tab.sum(1) != 16 || tab.sum(3) != 16 {
		t.Fatalf("sums: %d %d", tab.sum(1), tab.sum(3))
	}
}

func TestPlaceNewLeavesLoneHalf(t *testing.T) {
	// A dead object's halves sit on C0 and C2; a new object covering
	// C2..C4 discards the half on C2. The half on C0 stays a half: it
	// contributes half the object's size however the chunks merge.
	tab := testTable(3, 2)    // chunk size 8
	obj(tab, 1, 0, 32, false) // compacted away from [0,32)
	obj(tab, 2, 16, 32, true) // covers C2, C3, C4 fully
	tab.associateHalves(1, 0, 2)
	tab.placeNew(2, 2, 3, 4)
	for step := 0; step < 2; step++ {
		if p, ok := tab.entry(0, 1); !ok || p != half {
			t.Fatalf("after %d step changes: lone half on C0 reads %v %v, want half", step, p, ok)
		}
		tab.doubleStep()
	}
	// Step 5: C0 holds the lone half (16) and the new object's first
	// half (16).
	if p, ok := tab.entry(0, 1); !ok || p != half || tab.sum(0) != 32 {
		t.Fatalf("at step 5: lone half %v %v, sum(0)=%d, want half and 32", p, ok, tab.sum(0))
	}
}

func TestPlaceNewPanicsOnLiveEntry(t *testing.T) {
	tab := testTable(3, 2)
	obj(tab, 1, 8, 2, true)
	tab.associateFull(1, 1)
	obj(tab, 2, 8, 32, true)
	defer func() {
		if recover() == nil {
			t.Fatal("placeNew over a live association did not panic")
		}
	}()
	tab.placeNew(2, 1, 2, 3)
}

func TestTrimBelowThresholdFreesNothing(t *testing.T) {
	// Chunk with 3 unit objects at threshold 4: the sum (3) is already
	// below the density floor, so line 13 frees nothing — freeing would
	// decrease the potential function (Claim 4.16) and hand the manager
	// reusable space without any compaction cost.
	tab := testTable(4, 2) // threshold 4
	for id, addr := range []int64{0, 4, 8} {
		_ = obj(tab, heap.ObjectID(id+1), addr, 1, true)
		tab.associateFull(heap.ObjectID(id+1), 0)
	}
	freed := tab.trim(nil)
	if len(freed) != 0 {
		t.Fatalf("freed %v, want nothing", freed)
	}
	if len(tab.set(0)) != 3 {
		t.Fatalf("chunk kept %d entries, want 3", len(tab.set(0)))
	}
}

func TestPotentialComputation(t *testing.T) {
	tab := testTable(3, 2) // chunk size 8, multiplier 2^2
	// Chunk 0: sum 2 → u = min(8, 8) = 8. Chunk 1: sum 1 → u = 4.
	obj(tab, 1, 0, 2, true)
	obj(tab, 2, 8, 1, true)
	tab.associateFull(1, 0)
	tab.associateFull(2, 1)
	setE(tab, 4) // contributes chunk size 8
	n := int64(32)
	want := int64(8 + 4 + 8 - 32/4)
	if got := tab.potential(n); got != want {
		t.Fatalf("potential = %d, want %d", got, want)
	}
}

func TestCoveredChunks(t *testing.T) {
	tab := testTable(3, 2) // chunk size 8
	// Aligned 32-word object covers 4 chunks.
	if got := tab.coveredChunks(heap.Span{Addr: 16, Size: 32}); len(got) != 4 || got[0] != 2 {
		t.Fatalf("aligned coverage: %v", got)
	}
	// Unaligned 32-word object covers exactly 3 full chunks.
	if got := tab.coveredChunks(heap.Span{Addr: 19, Size: 32}); len(got) != 3 || got[0] != 3 {
		t.Fatalf("unaligned coverage: %v", got)
	}
}
