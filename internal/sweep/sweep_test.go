package sweep

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"compaction/internal/bounds"
	"compaction/internal/core"
	"compaction/internal/sim"
	"compaction/internal/workload"

	_ "compaction/internal/mm/bpcompact"
	_ "compaction/internal/mm/fits"
	_ "compaction/internal/mm/threshold"
)

func baseCfg() sim.Config {
	return sim.Config{M: 1 << 14, N: 1 << 6, Pow2Only: true}
}

func pfProg() sim.Program { return core.NewPF(core.Options{}) }

func TestGridShape(t *testing.T) {
	cells := Grid(baseCfg(), []int64{8, 16}, []string{"first-fit", "best-fit", "threshold"}, "pf", pfProg)
	if len(cells) != 6 {
		t.Fatalf("grid size %d, want 6", len(cells))
	}
	if cells[0].Config.C != 8 || cells[5].Config.C != 16 {
		t.Fatalf("grid order wrong: %+v", cells)
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	cells := Grid(baseCfg(), []int64{8, 16}, []string{"first-fit", "bp-compact", "threshold"}, "pf", pfProg)
	par, err := RunOpts(context.Background(), cells, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	ser, err := RunOpts(context.Background(), cells, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(cells) || len(ser) != len(cells) {
		t.Fatal("outcome count mismatch")
	}
	for i := range par {
		if par[i].Err != nil || ser[i].Err != nil {
			t.Fatalf("cell %d errored: %v / %v", i, par[i].Err, ser[i].Err)
		}
		if par[i].Result.HighWater != ser[i].Result.HighWater {
			t.Fatalf("cell %d: parallel HS=%d, serial HS=%d (nondeterminism)",
				i, par[i].Result.HighWater, ser[i].Result.HighWater)
		}
	}
}

func TestSweepRespectsTheorem1(t *testing.T) {
	cs := []int64{8, 16, 32}
	cells := Grid(baseCfg(), cs, []string{"first-fit", "threshold"}, "pf", pfProg)
	outs, err := RunOpts(context.Background(), cells, Options{Parallelism: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s c=%d: %v", o.Cell.Manager, o.Cell.Config.C, o.Err)
		}
		h, _, err := bounds.Theorem1(bounds.Params{M: o.Cell.Config.M, N: o.Cell.Config.N, C: o.Cell.Config.C})
		if err != nil {
			t.Fatal(err)
		}
		if o.Result.WasteFactor() < h {
			t.Errorf("%s c=%d: %.4f below floor %.4f",
				o.Cell.Manager, o.Cell.Config.C, o.Result.WasteFactor(), h)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	cells := Grid(baseCfg(), []int64{8}, []string{"first-fit"}, "pf", pfProg)
	outs, err := RunOpts(context.Background(), cells, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, outs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "pf,first-fit,16384,64,8,") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestSummaryGroupsAndSorts(t *testing.T) {
	cells := Grid(baseCfg(), []int64{8, 16}, []string{"first-fit", "threshold"}, "pf", pfProg)
	outs, err := RunOpts(context.Background(), cells, Options{Parallelism: 0})
	if err != nil {
		t.Fatal(err)
	}
	s := Summary(outs)
	i8, i16 := strings.Index(s, "c=8:"), strings.Index(s, "c=16:")
	if i8 < 0 || i16 < 0 || i8 > i16 {
		t.Fatalf("groups missing or unordered:\n%s", s)
	}
	// Within each group the rows are sorted by waste factor.
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Cell.Manager, o.Err)
		}
	}
	var prevC int64 = -100
	var prevWaste float64
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "c=") {
			prevC++
			prevWaste = 0
			continue
		}
		if strings.Contains(line, "x (") {
			var waste float64
			var name string
			if _, err := fmt.Sscanf(strings.TrimSpace(line), "%s %fx", &name, &waste); err != nil {
				t.Fatalf("unparseable row %q: %v", line, err)
			}
			if waste < prevWaste {
				t.Fatalf("rows not sorted:\n%s", s)
			}
			prevWaste = waste
		}
	}
}

func TestRunReportsBadManager(t *testing.T) {
	outs, err := RunOpts(context.Background(), []Cell{{
		Label: "x", Config: baseCfg(), Manager: "nope",
		Program: func() sim.Program {
			return workload.NewRandom(workload.Config{Seed: 1, Rounds: 5})
		},
	}}, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil {
		t.Fatal("unknown manager not reported")
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, outs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "unknown manager") {
		t.Fatalf("error not in CSV: %s", buf.String())
	}
}
