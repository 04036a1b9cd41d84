package dist

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"compaction/internal/bounds"
	"compaction/internal/mm"
	"compaction/internal/obs"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"
	"compaction/internal/word"
)

var update = flag.Bool("update", false, "rewrite the behaviour-lock golden CSV and placement digests")

// lockGolden is the behaviour lock: the CSV of a fixed grid, recorded
// once and compared byte for byte by every execution path that runs
// it. A refactor of the sweep, its checkpoint journal or the engine
// underneath must leave this file unchanged.
const lockGolden = "testdata/lock.csv.golden"

// digestGolden is the placement half of the lock: one line per cell
// of the digest grid, folding every alloc, free and move event of the
// cell's engine into an FNV-64a digest. The CSV pins totals; the
// digest pins where each object went, so a refactor that keeps every
// total but places one object elsewhere fails here.
const digestGolden = "testdata/lock.digest.golden"

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

// churnCells are the digest grid's cells beyond the lock grid: random
// churn at M=4Ki for 200 rounds over every manager, long enough for
// threshold's evacuation to meet a best hole inside the chunk it
// evacuates and fall back to the first fit outside it, which the
// lock grid's 60-round cells never reach. They are labelled churn200
// and pinned by digest only, so the lock CSV stays as it is.
func churnCells(t *testing.T) []sweep.Cell {
	t.Helper()
	spec := GridSpec{Program: "random", Seed: 1, Rounds: 200, M: 4096, N: 64, Shards: 1,
		Cs: []int64{8, 16, 32}, Managers: mm.Names()}
	cells, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		cells[i].Label = "churn200"
	}
	return cells
}

// digestTracer folds a cell's alloc, free and move events — kind,
// round, object ID, source, destination and size, each as 8
// little-endian bytes — into an FNV-64a digest, inline so that
// tracing allocates nothing per event. Each cell gets its own, so no
// locking is needed.
type digestTracer struct {
	h      uint64
	events int
}

func newDigests(n int) []*digestTracer {
	d := make([]*digestTracer, n)
	for i := range d {
		d[i] = &digestTracer{h: 14695981039346656037} // FNV-64 offset basis
	}
	return d
}

func (d *digestTracer) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.EvAlloc, obs.EvFree, obs.EvMove:
	default:
		return
	}
	for _, v := range [...]int64{int64(ev.Kind), int64(ev.Round), int64(ev.ID), int64(ev.From), int64(ev.Addr), int64(ev.Size)} {
		for k := 0; k < 64; k += 8 {
			d.h ^= uint64(byte(v >> k))
			d.h *= 1099511628211 // FNV-64 prime
		}
	}
	d.events++
}

// digestLines renders the digest golden: a header, then one line per
// cell in grid order.
func digestLines(cells []sweep.Cell, d []*digestTracer) []byte {
	var b bytes.Buffer
	b.WriteString("label,manager,M,n,c,shards,events,digest\n")
	for i, c := range cells {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%d,%016x\n", c.Label, c.Manager,
			c.Config.M, c.Config.N, c.Config.C, c.Config.Shards, d[i].events, d[i].h)
	}
	return b.Bytes()
}

// checkDigest compares a run's placement digests with the golden's
// leading lines: an arm that runs only a prefix of the digest grid
// checks that prefix.
func checkDigest(t *testing.T, arm string, cells []sweep.Cell, d []*digestTracer) {
	t.Helper()
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	gl := bytes.Split(bytes.TrimSuffix(digestLines(cells, d), []byte("\n")), []byte("\n"))
	wl := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
	if len(wl) < len(gl) {
		t.Fatalf("%s: %d digest lines, %s has %d", arm, len(gl), digestGolden, len(wl))
	}
	for i := range gl {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s: placements diverge from %s at line %d:\ngot  %s\nwant %s", arm, digestGolden, i+1, gl[i], wl[i])
		}
	}
}

// checkLock compares a sweep's outcomes with the golden CSV, and
// checks the paper's second theorem on every improved row.
func checkLock(t *testing.T, arm string, outs []sweep.Outcome) {
	t.Helper()
	if holes := sweep.Holes(outs); len(holes) != 0 {
		t.Fatalf("%s: holes at %v: %v", arm, holes, outs[holes[0]].Err)
	}
	checkTheorem2(t, arm, outs)
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

// checkTheorem2 requires improved, the reconstruction of Theorem 2's
// manager (DESIGN.md §5), to stay within the theorem's bound on every
// row where its side condition c > ½·log2 n holds. A failure is a
// finding about the reconstruction, not a bound to loosen.
func checkTheorem2(t *testing.T, arm string, outs []sweep.Outcome) {
	t.Helper()
	checked := 0
	for _, o := range outs {
		cfg := o.Cell.Config
		if o.Cell.Manager != "improved" || float64(cfg.C) <= float64(word.Log2(cfg.N))/2 {
			continue
		}
		ub, err := bounds.Theorem2(bounds.Params{M: cfg.M, N: cfg.N, C: cfg.C})
		if err != nil {
			t.Fatalf("%s: %s c=%d: %v", arm, o.Cell.Label, cfg.C, err)
		}
		if w := o.Result.WasteFactor(); w > ub {
			t.Errorf("%s: improved under %s at M=%d, n=%d, c=%d: waste %.4f exceeds Theorem 2's %.4f",
				arm, o.Cell.Label, cfg.M, cfg.N, cfg.C, w, ub)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("%s: no improved row meets Theorem 2's side condition; the check is vacuous", arm)
	}
}

// TestBehaviourLock runs the lock grid straight through sweep.RunOpts
// and, in a second arm, interrupted after about a third of its cells
// and resumed from the checkpoint journal. Both must reproduce the
// golden CSV byte for byte, and every cell's placement digest. The
// straight arm also runs the churn cells, which only the digest pins.
func TestBehaviourLock(t *testing.T) {
	cells := lockCells(t)
	if len(cells) != 216 {
		t.Fatalf("lock grid has %d cells, want 216", len(cells))
	}
	all := append(cells, churnCells(t)...)
	digests := newDigests(len(all))
	outs, err := sweep.RunOpts(context.Background(), all, sweep.Options{
		Parallelism:  2,
		EngineTracer: func(cell int) obs.Tracer { return digests[cell] },
	})
	if err != nil {
		t.Fatal(err)
	}
	if holes := sweep.Holes(outs); len(holes) != 0 {
		t.Fatalf("holes at %v: %v", holes, outs[holes[0]].Err)
	}
	if *update {
		var b bytes.Buffer
		if err := sweep.WriteCSV(&b, outs[:len(cells)]); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lockGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, digestLines(all, digests), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkLock(t, "straight", outs[:len(cells)])
	checkDigest(t, "straight", all, digests)

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
		// A journaled cell ran to completion in the interrupted sweep,
		// so its digest comes from there; the rest from the resumed one.
		firstDigests, resumedDigests := newDigests(len(cut)), newDigests(len(cut))
		first, err := sweep.RunOpts(ctx, cut, sweep.Options{Parallelism: 2, Journal: j, Params: params,
			EngineTracer: func(cell int) obs.Tracer { return firstDigests[cell] }})
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
		resumed, err := sweep.RunOpts(context.Background(), lockCells(t), sweep.Options{Parallelism: 2, Journal: j2, Params: params,
			EngineTracer: func(cell int) obs.Tracer { return resumedDigests[cell] }})
		if err != nil {
			t.Fatal(err)
		}
		restored := 0
		for i, o := range resumed {
			if o.Restored {
				restored++
				resumedDigests[i] = firstDigests[i]
			}
		}
		if restored != j.Len() {
			t.Fatalf("resume restored %d cells, want the %d journaled", restored, j.Len())
		}
		checkLock(t, "resumed", resumed)
		checkDigest(t, "resumed", cut, resumedDigests)
	})
}
