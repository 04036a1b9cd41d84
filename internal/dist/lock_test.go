package dist

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"compaction/internal/mm"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the behaviour-lock golden CSV")

// lockGolden is the behaviour lock: the CSV of a fixed grid, recorded
// once and compared byte for byte by every execution path that runs
// it. A refactor of the sweep, its checkpoint journal or the engine
// underneath must leave this file unchanged.
const lockGolden = "testdata/lock.csv.golden"

// lockCells expands the lock grid: every registered manager against
// P_F, P_R and random churn, at two compaction bounds, unsharded and
// over four shards — 216 cells in a fixed order.
func lockCells(t *testing.T) []sweep.Cell {
	t.Helper()
	var cells []sweep.Cell
	for _, p := range []string{"pf", "robson", "random"} {
		for _, s := range []int{1, 4} {
			spec := GridSpec{Program: p, Seed: 3, Rounds: 60, M: 4096, N: 64, Shards: s,
				Cs: []int64{8, 32}, Managers: mm.Names()}
			cs, _, err := spec.Expand()
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cs...)
		}
	}
	return cells
}

// checkLock compares a sweep's outcomes with the golden CSV.
func checkLock(t *testing.T, arm string, outs []sweep.Outcome) {
	t.Helper()
	if holes := sweep.Holes(outs); len(holes) != 0 {
		t.Fatalf("%s: holes at %v: %v", arm, holes, outs[holes[0]].Err)
	}
	var got bytes.Buffer
	if err := sweep.WriteCSV(&got, outs); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(lockGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s: CSV diverges from %s at line %d:\ngot  %s\nwant %s", arm, lockGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: CSV has %d lines, %s has %d", arm, len(gl), lockGolden, len(wl))
	}
}

// TestBehaviourLock runs the lock grid straight through sweep.RunOpts
// and, in a second arm, interrupted after about a third of its cells
// and resumed from the checkpoint journal. Both must reproduce the
// golden CSV byte for byte.
func TestBehaviourLock(t *testing.T) {
	cells := lockCells(t)
	if len(cells) != 216 {
		t.Fatalf("lock grid has %d cells, want 216", len(cells))
	}
	outs, err := sweep.RunOpts(context.Background(), cells, sweep.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		var b bytes.Buffer
		if err := sweep.WriteCSV(&b, outs); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lockGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkLock(t, "straight", outs)

	t.Run("resumed", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "lock.ckpt")
		j, err := resume.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cut := lockCells(t)
		var started atomic.Int32
		for i := range cut {
			mk := cut[i].Program
			cut[i].Program = func() sim.Program {
				if started.Add(1) == int32(len(cut)/3) {
					cancel()
				}
				return mk()
			}
		}
		const params = "lock"
		first, err := sweep.RunOpts(ctx, cut, sweep.Options{Parallelism: 2, Journal: j, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		if len(sweep.Holes(first)) == 0 || j.Len() == 0 {
			t.Fatalf("interruption left %d holes and %d journaled cells; the arm is vacuous",
				len(sweep.Holes(first)), j.Len())
		}
		j2, err := resume.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if j2.Len() != j.Len() {
			t.Fatalf("reopened journal holds %d cells, the interrupted sweep journaled %d", j2.Len(), j.Len())
		}
		resumed, err := sweep.RunOpts(context.Background(), lockCells(t), sweep.Options{Parallelism: 2, Journal: j2, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		restored := 0
		for _, o := range resumed {
			if o.Restored {
				restored++
			}
		}
		if restored != j.Len() {
			t.Fatalf("resume restored %d cells, want the %d journaled", restored, j.Len())
		}
		checkLock(t, "resumed", resumed)
	})
}
