// Command tracegen generates, inspects and replays allocation traces:
//
//	tracegen -out trace.bin                          # record a random workload
//	tracegen -out trace.json -encoding json -seed 7  # JSON encoding
//	tracegen -replay trace.bin -manager best-fit     # replay elsewhere
//	tracegen -info trace.bin                         # header + stats
//
// Traces capture the request stream of a program (frees and
// allocation sizes per round) so different memory managers can be
// compared on identical traffic.
package main

import (
	"flag"
	"fmt"
	"os"

	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/trace"
	"compaction/internal/word"
	"compaction/internal/workload"

	_ "compaction/internal/mm/all"
)

func main() {
	var (
		out      = flag.String("out", "", "record a workload trace to this file")
		encoding = flag.String("encoding", "binary", `"binary" or "json"`)
		replay   = flag.String("replay", "", "replay a trace file against -manager")
		info     = flag.String("info", "", "print header and stats of a trace file")
		manager  = flag.String("manager", "first-fit", "manager for recording/replay")
		mFlag    = word.NewFlagSize(flag.CommandLine, "M", 1<<14, "live-space bound M in words (e.g. 16Ki)")
		nFlag    = word.NewFlagSize(flag.CommandLine, "n", 1<<6, "largest object size in words")
		cFlag    = flag.Int64("c", -1, "compaction bound (-1 = non-moving)")
		seed     = flag.Int64("seed", 1, "workload seed")
		rounds   = flag.Int("rounds", 100, "workload rounds")
	)
	flag.Parse()
	var err error
	switch {
	case *info != "":
		err = showInfo(*info)
	case *replay != "":
		err = doReplay(*replay, *manager, mFlag.Size(), nFlag.Size(), *cFlag)
	case *out != "":
		err = record(*out, *encoding, *manager, mFlag.Size(), nFlag.Size(), *cFlag, *seed, *rounds)
	default:
		err = fmt.Errorf("one of -out, -replay or -info is required")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := trace.ReadBinary(f)
	if err == nil {
		return t, nil
	}
	// Fall back to JSON.
	if _, serr := f.Seek(0, 0); serr != nil {
		return nil, serr
	}
	return trace.ReadJSON(f)
}

func record(path, encoding, manager string, m, n, c, seed int64, rounds int) error {
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
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t := rec.Result()
	if encoding == "json" {
		err = t.WriteJSON(f)
	} else {
		err = t.WriteBinary(f)
	}
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d rounds (%d allocs, HS=%s words) to %s\n",
		len(t.Rounds), res.Allocs, word.Format(res.HighWater), path)
	return f.Close()
}

func doReplay(path, manager string, m, n, c int64) error {
	t, err := readTrace(path)
	if err != nil {
		return err
	}
	if m == 0 {
		m = t.M
	}
	if n == 0 {
		n = t.N
	}
	mgr, err := mm.New(manager)
	if err != nil {
		return err
	}
	cfg := sim.Config{M: t.M, N: t.N, C: c, Pow2Only: false}
	e, err := sim.NewEngine(cfg, trace.NewReplayer(t), mgr)
	if err != nil {
		return err
	}
	res, err := e.Run()
	if err != nil {
		return err
	}
	fmt.Printf("replayed %q against %s: HS=%s words (%.3f·M), %d moves\n",
		path, manager, word.Format(res.HighWater), res.WasteFactor(), res.Moves)
	return nil
}

func showInfo(path string) error {
	t, err := readTrace(path)
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
