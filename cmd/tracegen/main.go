// Command tracegen records and inspects allocation traces:
//
//	tracegen -out trace.json -seed 7                 # record a random workload
//	tracegen -info trace.json                        # header + stats
//
// Traces capture the request stream of a program (frees and
// allocation sizes per round) so different memory managers can be
// compared on identical traffic. A trace is one JSON document, the
// same artifact the check package's shrinker writes; replay it against
// any manager, under the trace's own M, n and c, with
//
//	compactsim -replay trace.json -manager best-fit [-check]
package main

import (
	"flag"
	"fmt"
	"os"

	"compaction/internal/check"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/trace"
	"compaction/internal/word"
	"compaction/internal/workload"

	_ "compaction/internal/mm/all"
)

func main() {
	var (
		out     = flag.String("out", "", "record a workload trace to this file")
		info    = flag.String("info", "", "print header and stats of a trace file")
		manager = flag.String("manager", "first-fit", "manager to record against")
		mFlag   = word.NewFlagSize(flag.CommandLine, "M", 1<<14, "live-space bound M in words (e.g. 16Ki)")
		nFlag   = word.NewFlagSize(flag.CommandLine, "n", 1<<6, "largest object size in words")
		cFlag   = flag.Int64("c", -1, "compaction bound (-1 = non-moving)")
		seed    = flag.Int64("seed", 1, "workload seed")
		rounds  = flag.Int("rounds", 100, "workload rounds")
	)
	flag.Parse()
	var err error
	switch {
	case *info != "":
		err = showInfo(*info)
	case *out != "":
		err = record(*out, *manager, mFlag.Size(), nFlag.Size(), *cFlag, *seed, *rounds)
	default:
		err = fmt.Errorf("one of -out or -info is required")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func record(path, manager string, m, n, c, seed int64, rounds int) error {
	mgr, err := mm.New(manager)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(workload.NewRandom(workload.Config{
		Seed: seed, Rounds: rounds, Dist: workload.Geometric,
	}))
	cfg := sim.Config{M: m, N: n, C: c, Pow2Only: true}
	e, err := sim.NewEngine(cfg, rec, mgr)
	if err != nil {
		return err
	}
	res, err := e.Run()
	if err != nil {
		return err
	}
	t := rec.Result()
	if err := check.WriteArtifact(path, t); err != nil {
		return err
	}
	fmt.Printf("recorded %d rounds (%d allocs, HS=%s words) to %s\n",
		len(t.Rounds), res.Allocs, word.Format(res.HighWater), path)
	return nil
}

func showInfo(path string) error {
	t, err := check.ReadArtifact(path)
	if err != nil {
		return err
	}
	var allocs, frees int
	var words word.Size
	for _, rd := range t.Rounds {
		allocs += len(rd.AllocSizes)
		frees += len(rd.FreeOrdinals)
		for _, s := range rd.AllocSizes {
			words += s
		}
	}
	fmt.Printf("program: %s\nM=%s n=%s c=%d\nrounds=%d allocs=%d frees=%d allocated=%s words\n",
		t.Program, word.Format(t.M), word.Format(t.N), t.C,
		len(t.Rounds), allocs, frees, word.Format(words))
	return nil
}
