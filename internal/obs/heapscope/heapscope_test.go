package heapscope_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"compaction/internal/core"
	"compaction/internal/heap"
	"compaction/internal/mm"
	_ "compaction/internal/mm/fits" // registers first-fit
	"compaction/internal/obs/heapscope"
	"compaction/internal/profile"
	"compaction/internal/sim"
	"compaction/internal/word"
)

var update = flag.Bool("update", false, "rewrite the golden heatmap artifact")

// doc mirrors the JSON schema for decoding in tests.
type doc struct {
	V      int    `json:"v"`
	Shards int    `json:"shards"`
	Width  int    `json:"width"`
	Tiers  []tier `json:"tiers"`
}
type tier struct {
	Scale   int     `json:"scale"`
	Entries []entry `json:"entries"`
}
type entry struct {
	R0     int      `json:"r0"`
	R1     int      `json:"r1"`
	N      int      `json:"n"`
	HS     [3]int64 `json:"hs"`
	Live   [3]int64 `json:"live"`
	Shards []shard  `json:"shards"`
}
type shard struct {
	Live      [3]int64   `json:"live"`
	Free      [3]int64   `json:"free"`
	Largest   [3]int64   `json:"largest"`
	Intervals [3]int64   `json:"iv"`
	FS        [][2]int64 `json:"fs"`
	Heat      []int64    `json:"heat"`
}

func decode(t *testing.T, b []byte) doc {
	t.Helper()
	var d doc
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("artifact is not valid JSON: %v\n%s", err, b)
	}
	return d
}

// place is a test helper: occupancy with the given spans live.
func occWith(t *testing.T, spans ...heap.Span) *heap.Occupancy {
	t.Helper()
	occ := heap.NewOccupancy()
	for i, s := range spans {
		if err := occ.Place(heap.ObjectID(i+1), s); err != nil {
			t.Fatal(err)
		}
	}
	return occ
}

func TestSamplerSingleShard(t *testing.T) {
	s, err := heapscope.New(heapscope.Config{Width: 10, RawCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Heap: [0,10) live, [10,16) free, [16,18) live, [18,20) free,
	// [20,30) live. HS = 30, live = 22, free = 8 in 2 intervals,
	// largest 6.
	occ := occWith(t,
		heap.Span{Addr: 0, Size: 10},
		heap.Span{Addr: 16, Size: 2},
		heap.Span{Addr: 20, Size: 10},
	)
	s.Sample(0, occ)
	st := s.Stats()
	want := heapscope.Stats{Samples: 1, Round: 0, HighWater: 30, Live: 22,
		Free: 8, LargestFree: 6, Intervals: 2}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
	d := decode(t, s.AppendJSON(nil))
	if d.V != 1 || d.Shards != 1 || d.Width != 10 {
		t.Fatalf("header = %+v", d)
	}
	e := d.Tiers[0].Entries[0]
	if e.HS != [3]int64{30, 30, 30} || e.Live != [3]int64{22, 22, 22} {
		t.Fatalf("entry aggregates = %+v", e)
	}
	sh := e.Shards[0]
	// Census: one 6-word gap (class 3: [4,7]) and one 2-word gap
	// (class 2: [2,3]).
	if len(sh.FS) != 2 || sh.FS[0] != [2]int64{2, 1} || sh.FS[1] != [2]int64{3, 1} {
		t.Fatalf("free-size census = %v", sh.FS)
	}
	// Heat: span 30 over 10 cells = 3 words per cell; cells 0..2 fully
	// live (255), cell 3 [9,12) has 1 live word (85), cell 4 [12,15)
	// free (0), cell 5 [15,18) has 2 live (170), cell 6 [18,21) has 1
	// live (85), cells 7..9 fully live.
	wantHeat := []int64{255, 255, 255, 85, 0, 170, 85, 255, 255, 255}
	if len(sh.Heat) != 10 {
		t.Fatalf("heat row has %d cells, want 10", len(sh.Heat))
	}
	for j, h := range sh.Heat {
		if h != wantHeat[j] {
			t.Fatalf("heat = %v, want %v", sh.Heat, wantHeat)
		}
	}
}

func TestSamplerShardSplit(t *testing.T) {
	// Two shards of 64 words each. A free interval crossing the
	// boundary is cut in two, like the sharded heap's invariant that
	// no interval spans a boundary.
	s, err := heapscope.New(heapscope.Config{Shards: 2, Capacity: 128, Width: 4, RawCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	occ := occWith(t,
		heap.Span{Addr: 0, Size: 60},  // shard 0: [60,64) free
		heap.Span{Addr: 68, Size: 32}, // shard 1: [64,68) free, then live to 100
	)
	s.Sample(3, occ)
	d := decode(t, s.AppendJSON(nil))
	e := d.Tiers[0].Entries[0]
	if len(e.Shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(e.Shards))
	}
	s0, s1 := e.Shards[0], e.Shards[1]
	if s0.Live[2] != 60 || s0.Free[2] != 4 || s0.Intervals[2] != 1 || s0.Largest[2] != 4 {
		t.Fatalf("shard 0 = %+v", s0)
	}
	if s1.Live[2] != 32 || s1.Free[2] != 4 || s1.Intervals[2] != 1 || s1.Largest[2] != 4 {
		t.Fatalf("shard 1 = %+v", s1)
	}
	// Shard 1's heat row spans its local extent [64, 100): 36 words
	// over 4 cells of 9; cell 0 [64,73) has 5 live words.
	if got := s1.Heat[0]; got != 5*255/9 {
		t.Fatalf("shard 1 heat[0] = %d, want %d", got, 5*255/9)
	}
}

func TestSamplerFolding(t *testing.T) {
	s, err := heapscope.New(heapscope.Config{Width: 4, RawCap: 10})
	if err != nil {
		t.Fatal(err)
	}
	occ := heap.NewOccupancy()
	// Grow the heap by one 8-word object per sample so aggregates have
	// real spread; 25 samples → 25 raw, 2 mid entries, 0 coarse.
	for r := 0; r < 25; r++ {
		if err := occ.Place(heap.ObjectID(r+1), heap.Span{Addr: word.Addr(r * 10), Size: 8}); err != nil {
			t.Fatal(err)
		}
		s.Sample(r, occ)
	}
	d := decode(t, s.AppendJSON(nil))
	if got := len(d.Tiers[0].Entries); got != 10 { // ring capacity
		t.Fatalf("raw tier holds %d entries, want 10", got)
	}
	mid := d.Tiers[1].Entries
	if len(mid) != 2 {
		t.Fatalf("mid tier holds %d entries, want 2", len(mid))
	}
	m0 := mid[0]
	if m0.R0 != 0 || m0.R1 != 9 || m0.N != 10 {
		t.Fatalf("mid entry 0 window = %+v, want rounds [0,9] over 10 samples", m0)
	}
	// Live grows 8 words per round: min 8 (round 0), max 80 (round 9),
	// sum 8+16+...+80 = 440.
	if m0.Live != [3]int64{8, 80, 440} {
		t.Fatalf("mid entry 0 live agg = %v, want [8 80 440]", m0.Live)
	}
	if len(d.Tiers[2].Entries) != 0 {
		t.Fatalf("coarse tier should be empty after 25 samples")
	}
	// 100 samples reach the coarse tier.
	for r := 25; r < 100; r++ {
		s.Sample(r, occ)
	}
	d = decode(t, s.AppendJSON(nil))
	if got := len(d.Tiers[2].Entries); got != 1 {
		t.Fatalf("coarse tier holds %d entries, want 1", got)
	}
	if c := d.Tiers[2].Entries[0]; c.R0 != 0 || c.R1 != 99 || c.N != 100 {
		t.Fatalf("coarse entry window = %+v, want rounds [0,99] over 100 samples", c)
	}
}

// TestSamplerAllocFree pins the warm sampling path allocation-free
// once every tier's ring is full — the dynamic twin of the
// //compactlint:noalloc annotations, and the property that lets the
// engine's zero-alloc round loop keep its pin with sampling enabled
// (sim.TestEngineRoundIsAllocFree). A ring builds its entries on its
// first pass, so the coarse tier fills only after 100×RawCap samples.
func TestSamplerAllocFree(t *testing.T) {
	const rawCap = 10
	s, err := heapscope.New(heapscope.Config{Shards: 2, Capacity: 1 << 16, RawCap: rawCap})
	if err != nil {
		t.Fatal(err)
	}
	occ := heap.NewOccupancy()
	for i := 0; i < 200; i++ {
		if err := occ.Place(heap.ObjectID(i+1), heap.Span{Addr: word.Addr(i * 11), Size: 7}); err != nil {
			t.Fatal(err)
		}
	}
	round := 0
	for ; round <= 100*rawCap; round++ {
		s.Sample(round, occ)
	}
	if n := len(decode(t, s.AppendJSON(nil)).Tiers[2].Entries); n != rawCap {
		t.Fatalf("%d samples filled %d coarse slots, want all %d", round, n, rawCap)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Sample(round, occ)
		round++
	})
	if allocs != 0 {
		t.Fatalf("Sample allocated %.1f times per call on full rings, want 0", allocs)
	}
}

// TestSamplerSizedBySamples: a sampler allocates for the samples it
// takes, not for the rings it could fill. New and one compactd cell's
// samples at compactd's default shape (one shard, 64-cell rows,
// 512-entry rings; a 50-round cell sampled every round writes 50 raw
// and 5 folded entries) make 184 objects: 8 in New, 3 per entry (its
// shard slice, histogram and heat row) and 11 ring growths. A sampler
// that builds every ring slot up front makes 4,619 in New alone.
func TestSamplerSizedBySamples(t *testing.T) {
	const (
		samples   = 50
		maxAllocs = 200
	)
	occ := occWith(t, heap.Span{Addr: 0, Size: 10}, heap.Span{Addr: 16, Size: 2})
	allocs := testing.AllocsPerRun(20, func() {
		s, err := heapscope.New(heapscope.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < samples; r++ {
			s.Sample(r, occ)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("New and %d samples allocated %.0f objects, want at most %d", samples, allocs, maxAllocs)
	}
}

// goldenConfig is the sampler shape the golden artifact pins.
var goldenConfig = heapscope.Config{Width: 32, RawCap: 64}

// runScenario runs the canned seeded scenario the golden pins on a
// fresh sampler: the P_F adversary (few rounds, maximal fragmentation
// — exercises the free-interval census) followed by the 80-round
// "server" churn profile on the same sampler (exercises the 10×
// folding tier), both against first-fit, sampled every round.
func runScenario(t *testing.T) *heapscope.Sampler {
	t.Helper()
	s, err := heapscope.New(goldenConfig)
	if err != nil {
		t.Fatal(err)
	}
	runPrograms(t, s, sim.Config{M: 1 << 10, N: 1 << 4, C: 8, Pow2Only: true},
		core.NewPF(core.Options{}), profile.Canned()["server"].Program(7))
	return s
}

// runPrograms runs each program against first-fit under cfg, sampling
// every round into s.
func runPrograms(t *testing.T, s *heapscope.Sampler, cfg sim.Config, progs ...sim.Program) {
	t.Helper()
	for _, prog := range progs {
		mgr, err := mm.New("first-fit")
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewEngine(cfg, prog, mgr)
		if err != nil {
			t.Fatal(err)
		}
		e.HeapHook = s.Sample
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeatmapGolden pins the artifact schema byte-for-byte on a
// deterministic adversarial run, and re-runs the scenario to prove
// replays are byte-identical — the property compactd relies on to
// serve resumed jobs the same heatmap as uninterrupted ones.
func TestHeatmapGolden(t *testing.T) {
	got := runScenario(t).AppendJSON(nil)
	path := filepath.Join("testdata", "heatmap.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("heatmap artifact drifted from the committed schema; run with -update after an intentional change.\ngot %d bytes, want %d", len(got), len(want))
	}
	if again := runScenario(t).AppendJSON(nil); !bytes.Equal(got, again) {
		t.Errorf("two identical runs produced different artifacts (%d vs %d bytes)", len(got), len(again))
	}
	// The artifact must also be valid JSON with the declared shape.
	d := decode(t, got)
	if d.V != 1 || len(d.Tiers) != 3 {
		t.Fatalf("golden header = %+v", d)
	}
}
