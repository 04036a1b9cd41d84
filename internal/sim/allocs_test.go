package sim

import (
	"fmt"
	"testing"

	"compaction/internal/heap"
	"compaction/internal/obs"
	"compaction/internal/obs/heapscope"
	"compaction/internal/word"
)

// The engine's round loop must not allocate: doFrees/doAllocs,
// the occupancy updates, and the budget ledger all work in place, so
// the only allocations of a Run are its fixed per-run setup (the
// program view and the ledger). These tests pin that property with
// testing.AllocsPerRun rather than a benchmark, so a regression fails
// `go test` directly.
//
// The per-run fixed budget is documented in runFixedAllocBudget; the
// per-round budget is exactly zero and is asserted by comparing runs
// that differ only in round count.
const runFixedAllocBudget = 8

// steadyProg frees everything it allocated in the previous round and
// allocates k fresh objects, for a fixed number of rounds. All of its
// buffers are preallocated: a Step/Placed cycle performs no
// allocations in steady state, so any allocation the harness measures
// belongs to the engine or the manager.
type steadyProg struct {
	rounds, k int
	step      int
	live      []heap.ObjectID
	frees     []heap.ObjectID
	allocs    []word.Size
}

func newSteadyProg(rounds, k int, size word.Size) *steadyProg {
	p := &steadyProg{
		rounds: rounds,
		k:      k,
		live:   make([]heap.ObjectID, 0, k),
		frees:  make([]heap.ObjectID, 0, k),
		allocs: make([]word.Size, k),
	}
	for i := range p.allocs {
		p.allocs[i] = size
	}
	return p
}

func (p *steadyProg) reset() {
	p.step = 0
	p.live = p.live[:0]
	p.frees = p.frees[:0]
}

func (p *steadyProg) Name() string { return "steady" }

func (p *steadyProg) Step(*View) ([]heap.ObjectID, []word.Size, bool) {
	if p.step >= p.rounds {
		return nil, nil, true
	}
	p.step++
	p.frees = append(p.frees[:0], p.live...)
	p.live = p.live[:0]
	return p.frees, p.allocs, p.step >= p.rounds
}

func (p *steadyProg) Placed(id heap.ObjectID, _ heap.Span) {
	p.live = append(p.live, id)
}

func (p *steadyProg) Moved(heap.ObjectID, heap.Span, heap.Span) bool { return false }

// stackMgr is a minimal allocation-free manager for fixed-size slots:
// freed addresses go on a stack and are handed back LIFO. It exists so
// the measurement isolates the engine.
type stackMgr struct {
	slot word.Size
	free []word.Addr
	next word.Addr
}

func (m *stackMgr) Name() string { return "stack" }

func (m *stackMgr) Reset(Config) {
	m.free = m.free[:0]
	m.next = 0
}

func (m *stackMgr) Allocate(_ heap.ObjectID, size word.Size, _ Mover) (word.Addr, error) {
	if size != m.slot {
		return 0, fmt.Errorf("stackMgr: size %d, want %d", size, m.slot)
	}
	if n := len(m.free); n > 0 {
		a := m.free[n-1]
		m.free = m.free[:n-1]
		return a, nil
	}
	a := m.next
	m.next += size
	return a, nil
}

func (m *stackMgr) Free(_ heap.ObjectID, s heap.Span) {
	m.free = append(m.free, s.Addr)
}

// TestEngineRoundIsAllocFree pins the zero-allocs-per-round property
// in every observability mode: with tracing disabled (the nil-tracer
// fast path every production sweep uses), with an enabled tracer
// built from the allocation-free obs primitives (ring buffer + atomic
// metrics), which is what makes always-on flight recording free, and
// with a heapscope sampler on the HeapHook at its default stride,
// which is what makes heap introspection safe to leave on by default.
func TestEngineRoundIsAllocFree(t *testing.T) {
	cfg := Config{M: 1 << 10, N: 1 << 6, C: 16}
	const k = 8
	const slot = word.Size(16)

	measure := func(rounds int, tracer obs.Tracer, hook HeapHook, every int) float64 {
		prog := newSteadyProg(rounds, k, slot)
		mgr := &stackMgr{slot: slot, free: make([]word.Addr, 0, k)}
		e, err := NewEngine(cfg, prog, mgr)
		if err != nil {
			t.Fatal(err)
		}
		e.Tracer = tracer
		e.HeapHook = hook
		e.RoundHookEvery = every
		run := func() {
			prog.reset()
			if err := e.Reset(cfg, prog, mgr); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm up retained pages and buffer capacities
		return testing.AllocsPerRun(10, run)
	}

	modes := []struct {
		name   string
		tracer func() obs.Tracer
		hook   func(t *testing.T) (HeapHook, int)
	}{
		{"disabled", func() obs.Tracer { return nil }, nil},
		{"ring+metrics", func() obs.Tracer {
			return obs.Tee(obs.NewRing(1<<10), obs.NewSimMetrics(obs.NewRegistry()))
		}, nil},
		{"heapscope", func() obs.Tracer { return nil }, func(t *testing.T) (HeapHook, int) {
			// A ring builds its entries on its first pass: fill every
			// tier (100×RawCap samples reach the coarse ring's last
			// slot) so the runs measure the sampler's warm path.
			const rawCap = 10
			s, err := heapscope.New(heapscope.Config{RawCap: rawCap})
			if err != nil {
				t.Fatal(err)
			}
			occ := heap.NewOccupancy()
			for r := 0; r <= 100*rawCap; r++ {
				s.Sample(r, occ)
			}
			return s.Sample, heapscope.DefaultEvery
		}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			var hook HeapHook
			every := 0
			if mode.hook != nil {
				hook, every = mode.hook(t)
			}
			short := measure(32, mode.tracer(), hook, every)
			long := measure(512, mode.tracer(), hook, every)
			if long > short {
				perRound := (long - short) / (512 - 32)
				t.Errorf("engine rounds allocate: %.0f allocs at 512 rounds vs %.0f at 32 (%.3f allocs/round, want 0)",
					long, short, perRound)
			}
			if short > runFixedAllocBudget {
				t.Errorf("per-run fixed allocations = %.0f, over the documented budget %d",
					short, runFixedAllocBudget)
			}
		})
	}
}
