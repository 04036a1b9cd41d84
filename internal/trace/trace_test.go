package trace

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"compaction/internal/budget"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
	"compaction/internal/workload"

	_ "compaction/internal/mm/bpcompact"
	_ "compaction/internal/mm/fits"
	_ "compaction/internal/mm/threshold"
)

func cfg() sim.Config {
	return sim.Config{M: 1 << 10, N: 1 << 5, C: budget.NoCompaction, Pow2Only: true}
}

func record(t *testing.T) *Trace {
	t.Helper()
	mgr, err := mm.New("first-fit")
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(workload.NewRandom(workload.Config{Seed: 21, Rounds: 25}))
	e, err := sim.NewEngine(cfg(), rec, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return rec.Result()
}

func TestRecorderCapturesRun(t *testing.T) {
	tr := record(t)
	if tr.M != 1<<10 || tr.N != 1<<5 {
		t.Fatalf("header wrong: %+v", tr)
	}
	if len(tr.Rounds) != 25 {
		t.Fatalf("rounds = %d, want 25", len(tr.Rounds))
	}
	var allocs, frees int
	for _, rd := range tr.Rounds {
		allocs += len(rd.AllocSizes)
		frees += len(rd.FreeOrdinals)
	}
	if allocs == 0 || frees == 0 {
		t.Fatalf("empty trace: %d allocs, %d frees", allocs, frees)
	}
}

func TestReplayMatchesOriginalOnSameManager(t *testing.T) {
	tr := record(t)
	// Replaying against the same (deterministic) manager must give the
	// same heap usage.
	mgr, err := mm.New("first-fit")
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(cfg(), NewReplayer(tr), mgr)
	if err != nil {
		t.Fatal(err)
	}
	replayRes, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	mgr2, err := mm.New("first-fit")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := sim.NewEngine(cfg(), workload.NewRandom(workload.Config{Seed: 21, Rounds: 25}), mgr2)
	if err != nil {
		t.Fatal(err)
	}
	origRes, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if replayRes.HighWater != origRes.HighWater || replayRes.Allocated != origRes.Allocated {
		t.Fatalf("replay diverged: HS %d vs %d, allocated %d vs %d",
			replayRes.HighWater, origRes.HighWater, replayRes.Allocated, origRes.Allocated)
	}
}

func TestReplayAgainstDifferentManager(t *testing.T) {
	tr := record(t)
	mgr, err := mm.New("best-fit")
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(cfg(), NewReplayer(tr), mgr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("replay vs best-fit failed: %v", err)
	}
	if res.Allocs == 0 {
		t.Fatal("replay made no allocations")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := record(t)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("JSON round trip lost data")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSON(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestJSONHandlesEmptyTrace(t *testing.T) {
	tr := &Trace{Program: "empty", M: 4, N: 2, C: -1}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != "empty" || got.C != -1 || len(got.Rounds) != 0 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestRecorderPassesThrough(t *testing.T) {
	// The recorded run and an unrecorded run of the same program must
	// be identical (the recorder is transparent).
	run := func(wrap bool) sim.Result {
		mgr, err := mm.New("first-fit")
		if err != nil {
			t.Fatal(err)
		}
		var prog sim.Program = workload.NewRandom(workload.Config{Seed: 8, Rounds: 20})
		if wrap {
			prog = NewRecorder(prog)
		}
		e, err := sim.NewEngine(cfg(), prog, mgr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	if a.HighWater != b.HighWater || a.Allocated != b.Allocated || a.Allocs != b.Allocs {
		t.Fatalf("recorder changed the run: %+v vs %+v", a, b)
	}
}

func TestRoundSizesPreserved(t *testing.T) {
	tr := &Trace{
		Program: "x", M: 100, N: 10, C: 5,
		Rounds: []Round{
			{AllocSizes: []word.Size{1, 2, 4}},
			{FreeOrdinals: []int64{0, 2}, AllocSizes: []word.Size{8}},
		},
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("mismatch: %+v vs %+v", tr, got)
	}
}

// pinnedTrace is a request trace recorded once and committed:
// tracegen's random churn (geometric sizes, seed 1) at M=1Ki, n=16,
// c=16 over 20 rounds, recorded against first-fit.
const pinnedTrace = "testdata/churn_m1k_c16.json"

// TestPinnedTraceReplays pins the trace format from both ends: the
// committed file decodes and re-encodes to the same bytes, and
// replaying it under its own M, n and c gives the same totals it gave
// when it was recorded. A change to the JSON encoding, to the replay
// of ordinals, or to either manager's placements fails here.
func TestPinnedTraceReplays(t *testing.T) {
	data, err := os.ReadFile(pinnedTrace)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := tr.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatalf("%s does not re-encode to its own bytes", pinnedTrace)
	}
	base := sim.Result{
		Program: "random(geometric,seed=1)+replay", Rounds: 20,
		Allocs: 1801, Frees: 1536, MaxLive: 834, Allocated: 5507,
	}
	for _, tc := range []struct {
		manager   string
		highWater int64
		moves     int64
		moved     int64
	}{
		{"first-fit", 947, 0, 0},
		{"threshold", 912, 34, 105},
	} {
		mgr, err := mm.New(tc.manager)
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewEngine(sim.Config{M: tr.M, N: tr.N, C: tr.C}, NewReplayer(tr), mgr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.manager, err)
		}
		got.Config = sim.Config{}
		want := base
		want.Manager, want.HighWater, want.Moves, want.Moved = tc.manager, tc.highWater, tc.moves, tc.moved
		if got != want {
			t.Errorf("%s replay:\n got %+v\nwant %+v", tc.manager, got, want)
		}
	}
}
