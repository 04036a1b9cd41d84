// Heap-map visualization: watch fragmentation build up, round by
// round, as the paper's adversary P_F runs against a best-fit
// allocator — then contrast it with a friendly generational workload
// on the same manager. Each strip is the heap: one character per cell,
// darker means denser.
//
//	go run ./examples/heapmap_viz
package main

import (
	"fmt"
	"log"

	"compaction/internal/core"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/stats"
	"compaction/internal/workload"

	_ "compaction/internal/mm/fits"
)

const (
	m = 1 << 14
	n = 1 << 6
	c = 16
)

func visualize(title string, prog sim.Program, pow2 bool) {
	mgr, err := mm.New("best-fit")
	if err != nil {
		log.Fatal(err)
	}
	cfg := sim.Config{M: m, N: n, C: c, Pow2Only: pow2}
	e, err := sim.NewEngine(cfg, prog, mgr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("――― %s ―――\n", title)
	e.RoundHook = func(r sim.Result) {
		fmt.Printf("round %2d %s", r.Rounds, stats.HeapMap(e.Occupancy(), e.Extent(), 64))
	}
	res, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}
	hist := stats.DensityHistogram(e.Occupancy(), e.Extent(), 64)
	fmt.Printf("final: HS = %d words (%.3f×M)\n", res.HighWater, res.WasteFactor())
	fmt.Printf("cell densities: empty=%d <25%%=%d <50%%=%d <75%%=%d <100%%=%d full=%d\n\n",
		hist[0], hist[1], hist[2], hist[3], hist[4], hist[5])
}

func main() {
	fmt.Println("The adversary deliberately leaves every chunk just dense enough")
	fmt.Println("that evacuating it costs more compaction budget than it returns:")
	fmt.Println()
	visualize("P_F (the paper's adversary) vs best-fit",
		core.NewPF(core.Options{}), true)

	fmt.Println("Ordinary traffic on the same allocator stays dense:")
	fmt.Println()
	visualize("generational workload vs best-fit",
		workload.NewGenerational(7, 12), true)
}
