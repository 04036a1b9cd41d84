package sharded_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"compaction/internal/check"
	"compaction/internal/core"
	"compaction/internal/heap"
	"compaction/internal/heap/sharded"
	"compaction/internal/mm"
	"compaction/internal/obs"
	"compaction/internal/sim"
	"compaction/internal/word"
	"compaction/internal/workload"

	// Wrap tests shard managers resolved from the registry.
	_ "compaction/internal/mm/markcompact"
)

// scriptProg replays an explicit schedule of rounds and records every
// placement, so tests can assert exactly where objects land.
type scriptProg struct {
	rounds []scriptRound
	step   int
	placed map[heap.ObjectID]heap.Span
}

type scriptRound struct {
	frees  []heap.ObjectID
	allocs []word.Size
}

func newScriptProg(rounds ...scriptRound) *scriptProg {
	return &scriptProg{rounds: rounds, placed: make(map[heap.ObjectID]heap.Span)}
}

func (p *scriptProg) Name() string { return "script" }

func (p *scriptProg) Step(*sim.View) ([]heap.ObjectID, []word.Size, bool) {
	r := p.rounds[p.step]
	p.step++
	return r.frees, r.allocs, p.step >= len(p.rounds)
}

func (p *scriptProg) Placed(id heap.ObjectID, s heap.Span) { p.placed[id] = s }

func (p *scriptProg) Moved(id heap.ObjectID, _, to heap.Span) bool {
	p.placed[id] = to
	return false
}

func TestShardedManagersRegistered(t *testing.T) {
	names := mm.Names()
	for _, want := range []string{"sharded-first-fit", "sharded-segregated", "sharded-tlsf"} {
		if !slices.Contains(names, want) {
			t.Errorf("registry is missing %q (have %v)", want, names)
		}
	}
}

// TestShardedEngineRuns drives every sharded manager through the
// refereed engine at 1, 2 and 4 shards, under a seeded churn workload
// and under P_F, and a sharded compacting manager at 4 shards:
// check.Referee must find no violation in any run.
func TestShardedEngineRuns(t *testing.T) {
	requireClean := func(rep check.Report) {
		t.Helper()
		if !rep.Ok() {
			t.Errorf("shards=%d: %s", rep.Result.Config.Shards, rep)
		}
		if res := rep.Result; res.Allocs == 0 || res.HighWater < res.MaxLive {
			t.Errorf("shards=%d %s: implausible result %+v", res.Config.Shards, res.Manager, res)
		}
	}
	churnCfg := sim.Config{M: 1 << 12, N: 1 << 6, C: 16}
	pfCfg := sim.Config{M: 1 << 12, N: 1 << 5, C: 16, Pow2Only: true}
	for _, name := range []string{"sharded-first-fit", "sharded-segregated", "sharded-tlsf"} {
		for _, shards := range []int{1, 2, 4} {
			churnCfg.Shards, pfCfg.Shards = shards, shards
			for _, run := range []struct {
				cfg  sim.Config
				prog sim.Program
			}{
				{churnCfg, workload.NewRandom(workload.Config{Seed: 11, Rounds: 40})},
				{pfCfg, core.NewPF(core.Options{})},
			} {
				rep, err := check.Run(run.cfg, run.prog, name)
				if err != nil {
					t.Fatal(err)
				}
				requireClean(rep)
			}
		}
	}

	// A compacting sub-manager's moves pass through the shard movers.
	mgr, err := sharded.Wrap("mark-compact")
	if err != nil {
		t.Fatal(err)
	}
	ref := check.NewReferee(mgr)
	e, err := sim.NewEngine(churnCfg, workload.NewRandom(workload.Config{Seed: 11, Rounds: 40}), ref)
	if err != nil {
		t.Fatal(err)
	}
	e.RoundHook = ref.CheckRound
	res, rerr := e.Run()
	requireClean(check.Report{Result: res, Err: rerr, Violations: ref.Violations()})
	if res.Moves == 0 {
		t.Error("sharded mark-compact never moved under the referee")
	}
}

// identityCases pairs each ported policy with its unsharded original.
var identityCases = []struct{ plain, sharded string }{
	{"first-fit", "sharded-first-fit"},
	{"segregated", "sharded-segregated"},
	{"tlsf", "sharded-tlsf"},
}

// runSeries runs a fresh seeded churn program against a manager and
// returns the result plus the per-round series as CSV bytes.
func runSeries(t *testing.T, cfg sim.Config, manager string) (sim.Result, []byte) {
	t.Helper()
	mgr, err := mm.New(manager)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.NewRandom(workload.Config{Seed: 42, Rounds: 80})
	e, err := sim.NewEngine(cfg, prog, mgr)
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.SeriesRecorder{}
	e.Tracer = rec
	res, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", manager, err)
	}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf, cfg.M); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestShardsOneByteIdentical is the compatibility gate of the sharded
// managers: with a single shard, every ported policy must reproduce
// the unsharded engine output exactly — the same result counters and
// a byte-identical per-round series — on the canned churn workload
// under both shard spellings of the config (Shards=0 and Shards=1).
func TestShardsOneByteIdentical(t *testing.T) {
	for _, tc := range identityCases {
		for _, shards := range []int{0, 1} {
			cfg := sim.Config{M: 1 << 12, N: 1 << 6, C: 16, Shards: shards}
			want, wantCSV := runSeries(t, cfg, tc.plain)
			got, gotCSV := runSeries(t, cfg, tc.sharded)
			// The manager name is the only legitimate difference.
			want.Manager, got.Manager = "", ""
			if want != got {
				t.Errorf("shards=%d %s: result diverged from %s:\n got %+v\nwant %+v",
					shards, tc.sharded, tc.plain, got, want)
			}
			if !bytes.Equal(wantCSV, gotCSV) {
				t.Errorf("shards=%d %s: per-round series CSV diverged from %s (%d vs %d bytes)",
					shards, tc.sharded, tc.plain, len(gotCSV), len(wantCSV))
			}
		}
	}
}

// TestShardedEngineFallback pins the deterministic cross-shard
// fallback path: with two shards of 128 words, filling an object's
// home shard forces its placement into the other shard.
func TestShardedEngineFallback(t *testing.T) {
	cfg := sim.Config{M: 256, N: 64, C: 16, Capacity: 256, Shards: 2}
	// Round 1: ids 1..3 of 64 words; homes alternate (id%2), so shard
	// 1 holds ids 1 and 3 (its full 128 words) and shard 0 holds id 2.
	// Round 2: free id 2, allocate ids 4 and 5. Id 5's home shard (1)
	// is full, so it must fall back into shard 0.
	prog := newScriptProg(
		scriptRound{allocs: []word.Size{64, 64, 64}},
		scriptRound{frees: []heap.ObjectID{2}, allocs: []word.Size{64, 64}},
	)
	mgr, err := mm.New("sharded-first-fit")
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(cfg, prog, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for id, wantShard := range map[heap.ObjectID]word.Addr{1: 1, 2: 0, 3: 1, 4: 0} {
		if got := p128shard(prog.placed[id]); got != wantShard {
			t.Errorf("object %d placed at %v (shard %d), want shard %d", id, prog.placed[id], got, wantShard)
		}
	}
	if got := p128shard(prog.placed[5]); got != 0 {
		t.Errorf("object 5 placed at %v in its full home shard; fallback did not fire", prog.placed[5])
	}
}

func p128shard(s heap.Span) word.Addr { return s.Addr / 128 }

// TestShardedEngineExhaustion: when every shard is full the manager
// reports failure and the engine surfaces it as a manager error.
func TestShardedEngineExhaustion(t *testing.T) {
	cfg := sim.Config{M: 512, N: 64, C: 16, Capacity: 256, Shards: 2}
	prog := newScriptProg(scriptRound{allocs: []word.Size{64, 64, 64, 64, 64}})
	mgr, err := mm.New("sharded-first-fit")
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(cfg, prog, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); !errors.Is(err, sim.ErrManager) {
		t.Fatalf("overfull sharded heap returned %v, want ErrManager", err)
	}
}

// TestWrapShardsAnyRegisteredManager wraps a compacting manager from
// the registry and runs it sharded, including its round compactions.
func TestWrapShardsAnyRegisteredManager(t *testing.T) {
	mgr, err := sharded.Wrap("mark-compact")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mgr.Name(), "sharded-mark-compact"; got != want {
		t.Fatalf("Wrap name = %q, want %q", got, want)
	}
	cfg := sim.Config{M: 1 << 10, N: 1 << 5, C: 4, Pow2Only: true, Shards: 4}
	prog := workload.NewRandom(workload.Config{Seed: 3, Rounds: 30, Dist: workload.UniformPow2})
	e, err := sim.NewEngine(cfg, prog, mgr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Error("sharded markcompact never moved; compaction is not reaching the shards")
	}
	if _, err := sharded.Wrap("no-such-manager"); err == nil {
		t.Error("Wrap of unknown manager succeeded")
	}
}

// TestConfigShardsValidation pins the Config.Shards rules.
func TestConfigShardsValidation(t *testing.T) {
	base := sim.Config{M: 1 << 12, N: 1 << 6, C: 16}
	cases := []struct {
		name   string
		mutate func(*sim.Config)
		ok     bool
	}{
		{"zero", func(c *sim.Config) { c.Shards = 0 }, true},
		{"one", func(c *sim.Config) { c.Shards = 1 }, true},
		{"eight", func(c *sim.Config) { c.Shards = 8 }, true},
		{"negative", func(c *sim.Config) { c.Shards = -1 }, false},
		{"above-max", func(c *sim.Config) { c.Shards = sim.MaxShards + 1 }, false},
		{"indivisible", func(c *sim.Config) { c.Shards = 3; c.Capacity = 1 << 10 }, false},
		{"shard-below-n", func(c *sim.Config) { c.Shards = 64; c.Capacity = 1 << 11 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want ok", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate() accepted %+v", cfg)
			}
		})
	}
}
