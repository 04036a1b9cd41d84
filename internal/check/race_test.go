package check

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/sweep"
	"compaction/internal/word"
	"compaction/internal/workload"
)

// The shared-state canary: a manager whose every entry point asserts,
// via an atomic in-use flag, that no two goroutines ever drive the
// same instance concurrently, and whose constructor counts instances.
// If the sweep layer (or the registry) ever started sharing manager
// state across cells, the canary trips even without -race; under
// `go test -race` the detector additionally covers the engine and
// manager internals exercised by the parallel sweep.
var (
	canaryOnce        sync.Once
	canaryInstances   atomic.Int64
	canaryConcurrency atomic.Int64 // times two goroutines overlapped in one instance
)

type canaryManager struct {
	inner sim.Manager
	inUse atomic.Int32
}

func registerCanary() {
	canaryOnce.Do(func() {
		mm.Register("race-canary", func() sim.Manager {
			canaryInstances.Add(1)
			inner, err := mm.New("first-fit")
			if err != nil {
				panic(err)
			}
			return &canaryManager{inner: inner}
		})
	})
}

func (c *canaryManager) enter() func() {
	if !c.inUse.CompareAndSwap(0, 1) {
		canaryConcurrency.Add(1)
	}
	return func() { c.inUse.Store(0) }
}

func (c *canaryManager) Name() string { return "race-canary" }
func (c *canaryManager) Reset(cfg sim.Config) {
	defer c.enter()()
	c.inner.Reset(cfg)
}
func (c *canaryManager) Allocate(id heap.ObjectID, size word.Size, mv sim.Mover) (word.Addr, error) {
	defer c.enter()()
	return c.inner.Allocate(id, size, mv)
}
func (c *canaryManager) Free(id heap.ObjectID, s heap.Span) {
	defer c.enter()()
	c.inner.Free(id, s)
}

// TestSweepRaceStress runs a full parallel sweep over canary-wrapped
// managers at parallelism beyond GOMAXPROCS, twice, and checks:
// fresh state per cell, zero concurrent entries into any instance, and
// bit-identical outcomes across repetitions. CI runs this under
// -race (see the Makefile), which extends the check to every memory
// access in the engine, the managers and the sweep worker pool.
func TestSweepRaceStress(t *testing.T) {
	registerCanary()
	canaryInstances.Store(0)
	canaryConcurrency.Store(0)

	const cellCount = 48
	cells := make([]sweep.Cell, cellCount)
	for i := range cells {
		seed := int64(i + 1)
		cells[i] = sweep.Cell{
			Label:   "stress",
			Config:  sim.Config{M: 1 << 10, N: 1 << 5, C: 8},
			Manager: "race-canary",
			Program: func() sim.Program {
				return workload.NewRandom(workload.Config{Seed: seed, Rounds: 30, Dist: workload.Geometric})
			},
		}
	}
	parallelism := 2 * runtime.GOMAXPROCS(0)
	first, err := sweep.RunOpts(context.Background(), cells, sweep.Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	second, err := sweep.RunOpts(context.Background(), cells, sweep.Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}

	if got := canaryInstances.Load(); got != 2*cellCount {
		t.Errorf("expected a fresh manager per cell: %d instances for %d cells", got, 2*cellCount)
	}
	if n := canaryConcurrency.Load(); n != 0 {
		t.Errorf("canary tripped: %d concurrent entries into a shared manager instance", n)
	}
	for i := range first {
		if first[i].Err != nil {
			t.Fatalf("cell %d failed: %v", i, first[i].Err)
		}
		if first[i].Result.HighWater != second[i].Result.HighWater ||
			first[i].Result.Allocs != second[i].Result.Allocs {
			t.Fatalf("cell %d nondeterministic across sweeps: %+v vs %+v",
				i, first[i].Result, second[i].Result)
		}
	}
}

// TestParallelRefereedRuns drives referee-wrapped engines from many
// goroutines at once; the referee's shadow state must stay
// goroutine-local (this is the -race surface for the check package
// itself).
func TestParallelRefereedRuns(t *testing.T) {
	tr := cannedTraces(t)["random-churn"]
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := RunTrace(tr, "best-fit")
			if err != nil || !rep.Ok() {
				errs <- rep.String()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("parallel refereed run failed: %s", e)
	}
}
