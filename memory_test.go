package compaction_test

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"compaction"
	"compaction/internal/check"
	"compaction/internal/core"
	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// maxHeapBytesPerLiveWord bounds the largest post-GC live heap of a
// refereed P_F run, divided by M. With P_F's and the referee's dense,
// pointer-free tables the runs below read 144 B (first-fit) and 179 B
// (threshold) on a 2-CPU x86-64 host with Go 1.24; the bound leaves
// about 12% over the larger for drift across toolchains. Per-object
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
