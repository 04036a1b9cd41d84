package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"compaction/internal/check"
	"compaction/internal/mm"
	"compaction/internal/sim"
)

// pfSmall is pf-refereed shrunk to test size, with every manager that
// compacts at round starts beside the three the benchmark times.
var pfSmall = pfConfig{M: 1 << 12, N: 1 << 6, C: 16, Every: 4,
	Managers: []string{"first-fit", "threshold", "bitmap-first-fit", "bp-compact", "mark-compact", "improved"}}

func TestWrapperKeepsRoundCompactor(t *testing.T) {
	for _, name := range mm.Names() {
		m, err := mm.New(name)
		if err != nil {
			t.Fatal(err)
		}
		_, want := m.(sim.RoundCompactor)
		_, got := wrapManager(m, &managerStats{}, true, nil, nil).(sim.RoundCompactor)
		if got != want {
			t.Errorf("%s: wrapper RoundCompactor = %t, manager = %t", name, got, want)
		}
	}
	for _, name := range []string{"threshold", "bp-compact", "mark-compact", "improved"} {
		m, _ := mm.New(name)
		if _, ok := m.(sim.RoundCompactor); !ok {
			t.Errorf("%s no longer implements sim.RoundCompactor", name)
		}
	}
	ref := check.NewReferee(nil)
	if _, ok := wrapManager(ref, &managerStats{}, false, nil, nil).(sim.RoundCompactor); !ok {
		t.Error("wrapped referee hides StartRound")
	}
}

func TestTracedPFMatchesUntraced(t *testing.T) {
	for _, m := range pfSmall.Managers {
		plain := runPF(pfSmall, m, nil, false)
		tr := &pfTrace{}
		traced := runPF(pfSmall, m, tr, m == "first-fit")
		if plain.err != nil || traced.err != nil {
			t.Fatalf("%s: errors %v / %v", m, plain.err, traced.err)
		}
		if !sameResult(plain.res, traced.res) {
			t.Errorf("%s: traced result %+v, untraced %+v", m, traced.res, plain.res)
		}
		if plain.violations != 0 || traced.violations != 0 {
			t.Errorf("%s: referee violations %d / %d", m, plain.violations, traced.violations)
		}
		mgr, _ := mm.New(m)
		if _, rc := mgr.(sim.RoundCompactor); rc != (tr.atMgr.start.N > 0) {
			t.Errorf("%s: RoundCompactor %t but %d StartRound calls reached it", m, rc, tr.atMgr.start.N)
		}
		if plain.res.Moves > 0 && tr.atMgr.moveAlloc.N+tr.atMgr.moveStart.N == 0 {
			t.Errorf("%s: %d moves but none timed", m, plain.res.Moves)
		}

		// Reconciliation: no self time negative, and the layers account
		// for the independently timed run within 5%.
		l := tr.layers()
		for name, d := range map[string]time.Duration{
			"sim": l.simSelf, "core.step": l.coreStep, "core.callback": l.coreCallback,
			"mm.alloc": l.mmAllocSelf, "mm.free": l.mmFree, "mm.startround": l.mmStartRound,
			"check": l.checkSelf, "check.round_hook": l.checkRoundHook,
		} {
			if d < 0 {
				t.Errorf("%s: %s self time %v < 0", m, name, d)
			}
		}
		if r := seconds(l.sum()) / seconds(tr.outer); r < 0.95 || r > 1 {
			t.Errorf("%s: layers sum to %.3f of the run", m, r)
		}

		if m == "first-fit" {
			n, _, _, bad, err := replayHeap(tr.ops, tr.capacity)
			if err != nil || bad != 0 || n == 0 {
				t.Errorf("heap replay: %d ops, %d mismatches, err %v", n, bad, err)
			}
		}
	}
}

var gridSmall = gridConfig{Rounds: 5, M: 256, N: 16, Cs: span1(3), Sample: 4}

func TestTracedGridsMatchReference(t *testing.T) {
	rc := runConfig{seed: 7, procs: 2, scratch: t.TempDir()}
	spec := gridSmall.spec(rc.seed)
	cells, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	p, err := setupGrid(rc, spec, filepath.Join(rc.scratch, "ref"), false, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.run(context.Background(), rc, spec)
	p.close()
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := csvOf(want)
	if len(cells) == 0 || bytes.Count(wantCSV, []byte("\n")) != len(cells)+1 {
		t.Fatalf("reference CSV has the wrong shape:\n%s", wantCSV)
	}
	for _, distributed := range []bool{false, true} {
		for _, traced := range []bool{false, true} {
			p, err := setupGrid(rc, spec, filepath.Join(rc.scratch, "pass"), distributed, traced)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := p.run(context.Background(), rc, spec)
			p.close()
			if err != nil {
				t.Fatalf("distributed=%t traced=%t: %v", distributed, traced, err)
			}
			if got := csvOf(outs); !bytes.Equal(got, wantCSV) {
				t.Errorf("distributed=%t traced=%t: CSV differs:\n%s\nwant:\n%s", distributed, traced, got, wantCSV)
			}
		}
	}
}

// TestWorkloadsReportDeclaredMetrics runs every workload at test size
// in both modes: no check fails and every declared metric is there.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	small := map[string]func(context.Context, runConfig) (*report, error){
		"pf-refereed": func(ctx context.Context, rc runConfig) (*report, error) {
			return runPFWorkload(ctx, rc, pfConfig{M: 1 << 12, N: 1 << 6, C: 16, Every: 4, Managers: pfDefault.Managers})
		},
		"churn-grid": func(ctx context.Context, rc runConfig) (*report, error) {
			return runGridWorkload(ctx, rc, gridSmall, false)
		},
		"dist-grid": func(ctx context.Context, rc runConfig) (*report, error) {
			return runGridWorkload(ctx, rc, gridSmall, true)
		},
		"compactd-jobs": func(ctx context.Context, rc runConfig) (*report, error) {
			jc := jobsDefault
			jc.Jobs, jc.M, jc.Rounds = 8, 512, 5
			return runJobsWorkload(ctx, rc, jc)
		},
	}
	for name, fn := range small {
		for _, trace := range []bool{false, true} {
			rep, err := fn(context.Background(), runConfig{seed: 3, trace: trace, procs: 2, scratch: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d checks failed: %v", name, trace, rep.failed, rep.attempted, rep.notes)
			}
			ms, err := declaredMetrics(rep, trace)
			if err != nil {
				t.Errorf("%s trace=%t: %v", name, trace, err)
			}
			for n, m := range ms {
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables here in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []declared) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, code declares %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", what, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	sort.Strings(names)
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code has %d", names, len(workloads))
	}
}
