package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compaction/internal/catalog"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/stats"
)

// captureStdout runs f with os.Stdout redirected to a file and returns
// what f printed there.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = out
	ferr := f()
	os.Stdout = saved
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw), ferr
}

// seedsRow is the -seeds table row the runs of one manager over seeds
// 1..k must print: the waste factor's mean, min, max and sd over the
// runs that completed, and the count of those that failed. Each run is
// made here on its own engine, outside the sweep.
func seedsRow(t *testing.T, manager string, cfg sim.Config, adv string, rounds, seeds int) string {
	t.Helper()
	var wastes []float64
	failures := 0
	for seed := 1; seed <= seeds; seed++ {
		mk, pow2, err := catalog.New(adv, catalog.Params{Seed: int64(seed), Rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Pow2Only = pow2
		var res sim.Result
		mgr, err := mm.New(manager)
		if err == nil {
			var e *sim.Engine
			if e, err = sim.NewEngine(cfg, mk(), mgr); err == nil {
				res, err = e.Run()
			}
		}
		if err != nil {
			failures++
			continue
		}
		wastes = append(wastes, res.WasteFactor())
	}
	s := stats.Summarize(wastes)
	return fmt.Sprintf("%-20s %9.3fx %9.3fx %9.3fx %10.4f %d\n", manager, s.Mean, s.Min, s.Max, s.StdDev, failures)
}

// TestRunSeedsTable: -seeds k prints one row per manager, in registry
// order, whose statistics are those of k separate runs over seeds
// 1..k.
func TestRunSeedsTable(t *testing.T) {
	const seeds = 5
	out, err := captureStdout(t, func() error {
		return runSeeds(context.Background(), mustParse(t, "-adversary", "random", "-manager", "all",
			"-M", "4Ki", "-n", "32", "-c", "-1", "-rounds", "40", "-seeds", "5"))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "adversary=random M=4Ki n=32 c=-1 seeds=5\n" +
		fmt.Sprintf("%-20s %10s %10s %10s %10s %s\n", "manager", "mean", "min", "max", "sd", "failures")
	cfg := sim.Config{M: 1 << 12, N: 32, C: -1}
	for _, name := range mm.Names() {
		want += seedsRow(t, name, cfg, "random", 40, seeds)
	}
	if out != want {
		t.Fatalf("-seeds table:\n%s\nwant:\n%s", out, want)
	}
	// The seeds are distinct draws, not one run repeated.
	if row := seedsRow(t, "first-fit", cfg, "random", 40, seeds); strings.Contains(row, " 0.0000 ") {
		t.Fatalf("seeds produced identical runs: %s", row)
	}
}

// TestRunSeedsCountsFailures: runs that fail are counted, not averaged.
func TestRunSeedsCountsFailures(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return runSeeds(context.Background(), mustParse(t, "-adversary", "random", "-manager", "no-such-manager",
			"-M", "4Ki", "-n", "32", "-c", "-1", "-rounds", "5", "-seeds", "2"))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%-20s %9.3fx %9.3fx %9.3fx %10.4f %d\n", "no-such-manager", 0.0, 0.0, 0.0, 0.0, 2)
	if !strings.HasSuffix(out, want) {
		t.Fatalf("-seeds table:\n%s\nwant it to end in:\n%s", out, want)
	}
}

// TestRunSeedsInterruptedPropagates: a canceled -seeds run returns an
// error that main maps to exit status 3.
func TestRunSeedsInterruptedPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := captureStdout(t, func() error {
		return runSeeds(ctx, mustParse(t, "-adversary", "random", "-manager", "first-fit",
			"-M", "4Ki", "-n", "32", "-c", "-1", "-rounds", "5", "-seeds", "2"))
	})
	if err == nil {
		t.Fatal("canceled -seeds run reported success")
	}
	if got := exitCode(ctx, err); got != 3 {
		t.Fatalf("exit code = %d, want 3", got)
	}
}
