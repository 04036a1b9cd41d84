package compaction_test

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"compaction"
	"compaction/internal/check"
	"compaction/internal/core"
	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
	"compaction/internal/workload"
)

// maxHeapBytesPerLiveWord bounds the largest post-GC live heap of a
// refereed P_F run, divided by M. With P_F's and the referee's dense,
// pointer-free tables the runs below read 144 B (first-fit) and 179 B
// (threshold) on a 2-CPU x86-64 host with Go 1.24; the bound leaves
// about 12% over the larger for drift across toolchains. With the ID
// tables' pages following the live set they read 120 B and 153 B. Per-object
// maps, a pointer arena and M-sized stage-I buffers kept into stage II
// read 330 B for both.
const maxHeapBytesPerLiveWord = 200

// heapSampler wraps a program and records the largest live heap at a
// round start, measured after a forced collection so garbage does not
// count.
type heapSampler struct {
	sim.Program
	max uint64
}

func (h *heapSampler) Step(v *sim.View) ([]heap.ObjectID, []word.Size, bool) {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.max {
		h.max = s[0].Value.Uint64()
	}
	return h.Program.Step(v)
}

// TestPFRefereedPeakHeap bounds the memory per live word of the
// paper-scale smoke test's configuration at 1/256 of its M: the
// allocs/op and B/op gates of the benchmarks say nothing about how
// much of the heap a run keeps alive at once.
func TestPFRefereedPeakHeap(t *testing.T) {
	cfg := sim.Config{M: 1 << 16, N: 1 << 12, C: 16, Pow2Only: true}
	for _, name := range []string{"first-fit", "threshold"} {
		t.Run(name, func(t *testing.T) {
			prog := &heapSampler{Program: compaction.NewPF(core.Options{})}
			rep, err := check.RunSampled(cfg, prog, name, 64)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("refereed run failed: %s", rep)
			}
			perWord := float64(prog.max) / float64(cfg.M)
			t.Logf("%s: peak live heap %.1f MiB, %.0f B per live word", name, float64(prog.max)/(1<<20), perWord)
			if perWord > maxHeapBytesPerLiveWord {
				t.Errorf("peak live heap %.0f B per live word, bound %d", perWord, maxHeapBytesPerLiveWord)
			}
		})
	}
}

// churnFigures are what one refereed churn run leaves behind.
type churnFigures struct {
	heap  uint64  // post-GC live heap, engine, referee and manager reachable
	slots float64 // scan-list slots a walk inspects, mean over rounds
}

// scanList returns the manager's scan list (mm.Base.Objs), or nil
// for a manager that embeds no mm.Base.
func scanList(mgr sim.Manager) *heap.SpanTable {
	v := reflect.ValueOf(mgr)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return nil
	}
	f := v.Elem().FieldByName("Objs")
	if !f.IsValid() {
		return nil
	}
	return f.Addr().Interface().(*heap.SpanTable)
}

// refereedChurn runs random churn at M=1Ki for the given rounds under
// the referee and returns its figures.
func refereedChurn(t *testing.T, name string, rounds int) churnFigures {
	t.Helper()
	mgr, err := mm.New(name)
	if err != nil {
		t.Fatal(err)
	}
	ref := check.NewReferee(mgr)
	prog := workload.NewRandom(workload.Config{Seed: 1, Rounds: rounds, Dist: workload.Geometric})
	e, err := sim.NewEngine(sim.Config{M: 1 << 10, N: 64, C: 16}, prog, ref)
	if err != nil {
		t.Fatal(err)
	}
	tab := scanList(mgr)
	slots := 0
	e.RoundHook = func(res sim.Result) {
		ref.CheckRound(res)
		if tab != nil {
			slots += tab.Slots()
		}
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !ref.Ok() {
		t.Fatalf("%s: referee: %v", name, ref.Violations())
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(e)
	return churnFigures{heap: ms.HeapAlloc, slots: float64(slots) / float64(res.Rounds)}
}

// TestTablesFollowTheLiveSet pins that memory and scan cost follow the
// live set, not the number of objects ever allocated. IDs are never
// reused, so a table indexed by ID that keeps a slot per ID ever
// issued grows with the run's length: heap.SpanTable under the
// engine's Occupancy and a compactor's mm.Base.Objs, and the
// referee's shadow. Each hands its pages back once they empty. The
// test runs every manager under the referee through R and then 4R
// rounds of random churn at a fixed M, about 25,000 and 100,000
// objects over a live set of about 200. At 4R, with the engine,
// referee and manager still reachable, the post-GC heap must stay
// within 256 KiB of the figure at R, and a compactor's scan must
// inspect at most 1.5 times as many slots per round: the live
// window's pages, not every page of IDs ever issued.
func TestTablesFollowTheLiveSet(t *testing.T) {
	const (
		rounds = 400
		margin = 256 << 10
		factor = 1.5
	)
	for _, name := range mm.Names() {
		t.Run(name, func(t *testing.T) {
			short := refereedChurn(t, name, rounds)
			long := refereedChurn(t, name, 4*rounds)
			t.Logf("%s: post-GC heap %d B and %.0f scan slots per round after %d rounds, %d B and %.0f after %d",
				name, short.heap, short.slots, rounds, long.heap, long.slots, 4*rounds)
			if long.heap > short.heap+margin {
				t.Errorf("%s: post-GC heap grew from %d B to %d B with 4× the rounds (margin %d B)",
					name, short.heap, long.heap, margin)
			}
			if long.slots > factor*short.slots {
				t.Errorf("%s: a scan inspects %.0f slots per round after %d rounds, %.0f after %d (factor %.1f)",
					name, short.slots, rounds, long.slots, 4*rounds, factor)
			}
		})
	}
}
