// Benchmarks regenerating every evaluation artifact of the paper (see
// DESIGN.md §4 for the experiment index):
//
//	BenchmarkFigure1, BenchmarkFigure2, BenchmarkFigure3 — the bound
//	    curves, with the headline values reported as metrics;
//	BenchmarkSim1PF       — P_F against every manager (reports HS/M and
//	    the Theorem 1 floor as metrics; the run fails the bound check);
//	BenchmarkSim2Robson   — P_R against the non-moving managers;
//	BenchmarkSim3BPUpper  — the (c+1)M manager under churn;
//	BenchmarkSim4Ablation — P_F with design ingredients disabled;
//	BenchmarkAllocatorThroughput — allocation-path micro-benchmarks.
package compaction_test

import (
	"fmt"
	"testing"

	"compaction"
	"compaction/internal/bounds"
	"compaction/internal/core"
	"compaction/internal/figures"
	"compaction/internal/mm"
	"compaction/internal/obs"
	"compaction/internal/obs/heapscope"
	"compaction/internal/profile"
	"compaction/internal/sim"
	"compaction/internal/workload"
)

// BenchmarkFigure1 regenerates the Figure 1 series (h over c = 10..100
// at the paper's M, n) and reports the three anchor values the paper
// quotes in prose.
func BenchmarkFigure1(b *testing.B) {
	var h10, h50, h100 float64
	for i := 0; i < b.N; i++ {
		fig, err := figures.Figure1(figures.PaperM, figures.PaperN)
		if err != nil {
			b.Fatal(err)
		}
		s := fig.Series[0]
		for j := range s.X {
			switch s.X[j] {
			case 10:
				h10 = s.Y[j]
			case 50:
				h50 = s.Y[j]
			case 100:
				h100 = s.Y[j]
			}
		}
	}
	b.ReportMetric(h10, "h(c=10)")
	b.ReportMetric(h50, "h(c=50)")
	b.ReportMetric(h100, "h(c=100)")
}

// BenchmarkFigure2 regenerates the Figure 2 series (h over n at c=100,
// M=256n) and reports the endpoints.
func BenchmarkFigure2(b *testing.B) {
	var first, last float64
	for i := 0; i < b.N; i++ {
		fig, err := figures.Figure2(100)
		if err != nil {
			b.Fatal(err)
		}
		s := fig.Series[0]
		first, last = s.Y[0], s.Y[len(s.Y)-1]
	}
	b.ReportMetric(first, "h(n=1Ki)")
	b.ReportMetric(last, "h(n=1Gi)")
}

// BenchmarkFigure3 regenerates the Figure 3 series (Theorem 2 vs the
// previous best upper bound) and reports the c=20 comparison, where
// the paper's improvement peaks.
func BenchmarkFigure3(b *testing.B) {
	var newAt20, prevAt20 float64
	for i := 0; i < b.N; i++ {
		fig, err := figures.Figure3(figures.PaperM, figures.PaperN)
		if err != nil {
			b.Fatal(err)
		}
		for j := range fig.Series[0].X {
			if fig.Series[0].X[j] == 20 {
				newAt20 = fig.Series[0].Y[j]
				prevAt20 = fig.Series[1].Y[j]
			}
		}
	}
	b.ReportMetric(newAt20, "thm2(c=20)")
	b.ReportMetric(prevAt20, "prev(c=20)")
}

// simConfig is the laptop-scale Sim-1 setting (M/n = 256 like the
// paper's figures).
func simConfig() sim.Config {
	return sim.Config{M: 1 << 16, N: 1 << 8, C: 16, Pow2Only: true}
}

// BenchmarkSim1PF runs the paper's adversary against every registered
// manager and reports the measured waste factor; it fails if any
// manager beats the Theorem 1 floor.
func BenchmarkSim1PF(b *testing.B) {
	cfg := simConfig()
	h, _, err := bounds.Theorem1(bounds.Params{M: cfg.M, N: cfg.N, C: cfg.C})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range mm.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			var waste float64
			for i := 0; i < b.N; i++ {
				mgr, err := mm.New(name)
				if err != nil {
					b.Fatal(err)
				}
				e, err := sim.NewEngine(cfg, core.NewPF(core.Options{}), mgr)
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				waste = res.WasteFactor()
				if waste < h {
					b.Fatalf("%s beat the Theorem 1 floor: %.4f < %.4f", name, waste, h)
				}
			}
			b.ReportMetric(waste, "HS/M")
			b.ReportMetric(h, "floor")
		})
	}
}

// BenchmarkSim2Robson runs Robson's adversary against the non-moving
// managers and reports waste against the classical bound.
func BenchmarkSim2Robson(b *testing.B) {
	cfg := sim.Config{M: 1 << 12, N: 1 << 6, C: compaction.NoCompaction, Pow2Only: true}
	floor := float64(4*cfg.M-cfg.N+1) / float64(cfg.M)
	for _, name := range []string{"first-fit", "best-fit", "buddy", "segregated"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var waste float64
			for i := 0; i < b.N; i++ {
				mgr, err := mm.New(name)
				if err != nil {
					b.Fatal(err)
				}
				e, err := sim.NewEngine(cfg, compaction.NewRobson(0), mgr)
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				waste = res.WasteFactor()
				if waste < floor {
					b.Fatalf("%s beat Robson's bound: %.4f < %.4f", name, waste, floor)
				}
			}
			b.ReportMetric(waste, "HS/M")
			b.ReportMetric(floor, "floor")
		})
	}
}

// BenchmarkSim3BPUpper verifies and times the (c+1)M guarantee of the
// Bendersky–Petrank compactor under heavy churn.
func BenchmarkSim3BPUpper(b *testing.B) {
	for _, c := range []int64{4, 16} {
		c := c
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			cfg := sim.Config{M: 1 << 12, N: 1 << 6, C: c, Pow2Only: true,
				Capacity: (c + 2) * (1 << 12)}
			var waste float64
			for i := 0; i < b.N; i++ {
				mgr, err := mm.New("bp-compact")
				if err != nil {
					b.Fatal(err)
				}
				prog := workload.NewRandom(workload.Config{Seed: 7, Rounds: 150, ChurnFrac: 0.5})
				e, err := sim.NewEngine(cfg, prog, mgr)
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				waste = res.WasteFactor()
				if waste > float64(c+1) {
					b.Fatalf("(c+1)M exceeded: %.3f > %d", waste, c+1)
				}
			}
			b.ReportMetric(waste, "HS/M")
			b.ReportMetric(float64(c+1), "bound")
		})
	}
}

// BenchmarkSim4Ablation measures how much each design ingredient of
// P_F contributes, against the threshold evacuator (the manager most
// sensitive to them).
func BenchmarkSim4Ablation(b *testing.B) {
	cfg := simConfig()
	variants := []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{}},
		{"no-stage1", core.Options{DisableStage1: true}},
		{"no-density", core.Options{DisableDensity: true}},
		{"no-ghosts", core.Options{DisableGhosts: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var waste float64
			for i := 0; i < b.N; i++ {
				mgr, err := mm.New("threshold")
				if err != nil {
					b.Fatal(err)
				}
				e, err := sim.NewEngine(cfg, core.NewPF(v.opts), mgr)
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				waste = res.WasteFactor()
			}
			b.ReportMetric(waste, "HS/M")
		})
	}
}

// BenchmarkProfiles runs the canned application profiles against a
// representative manager mix, reporting the measured waste factor:
// the "benchmarks do fine" counterpoint to the adversarial results.
func BenchmarkProfiles(b *testing.B) {
	for _, profName := range []string{"server", "compiler", "cache", "batch"} {
		prof := profile.Canned()[profName]
		for _, mgrName := range []string{"first-fit", "tlsf", "bp-compact"} {
			profName, mgrName, prof := profName, mgrName, prof
			b.Run(profName+"/"+mgrName, func(b *testing.B) {
				c := int64(16)
				cfg := sim.Config{M: 1 << 14, N: 1 << 8, C: c, Pow2Only: true}
				var waste float64
				for i := 0; i < b.N; i++ {
					mgr, err := mm.New(mgrName)
					if err != nil {
						b.Fatal(err)
					}
					e, err := sim.NewEngine(cfg, prof.Program(7), mgr)
					if err != nil {
						b.Fatal(err)
					}
					res, err := e.Run()
					if err != nil {
						b.Fatal(err)
					}
					waste = res.WasteFactor()
				}
				b.ReportMetric(waste, "HS/M")
			})
		}
	}
}

// BenchmarkObsOverhead measures what the observability layer adds to
// a full adversarial run: the nil-tracer fast path against a ring
// sink, the atomic metrics bundle, both tee'd together, and a
// heapscope heap sampler on the HeapHook at its default stride. The
// "off" case is the shipping default, so its allocs/op are part of
// the gated baseline; the heapscope case gates the introspection
// overhead that compactd jobs pay with heatmaps on.
func BenchmarkObsOverhead(b *testing.B) {
	cfg := sim.Config{M: 1 << 14, N: 1 << 6, C: 16, Pow2Only: true}
	modes := []struct {
		name string
		mk   func() obs.Tracer
		hook func(b *testing.B) (sim.HeapHook, int)
	}{
		{"off", func() obs.Tracer { return nil }, nil},
		{"ring", func() obs.Tracer { return obs.NewRing(1 << 12) }, nil},
		{"metrics", func() obs.Tracer { return obs.NewSimMetrics(obs.NewRegistry()) }, nil},
		{"ring+metrics", func() obs.Tracer {
			return obs.Tee(obs.NewRing(1<<12), obs.NewSimMetrics(obs.NewRegistry()))
		}, nil},
		{"heapscope", func() obs.Tracer { return nil }, func(b *testing.B) (sim.HeapHook, int) {
			s, err := heapscope.New(heapscope.Config{})
			if err != nil {
				b.Fatal(err)
			}
			return s.Sample, heapscope.DefaultEvery
		}},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			tracer := m.mk()
			var hook sim.HeapHook
			every := 0
			if m.hook != nil {
				hook, every = m.hook(b)
			}
			for i := 0; i < b.N; i++ {
				mgr, err := mm.New("first-fit")
				if err != nil {
					b.Fatal(err)
				}
				e, err := sim.NewEngine(cfg, core.NewPF(core.Options{}), mgr)
				if err != nil {
					b.Fatal(err)
				}
				e.Tracer = tracer
				e.HeapHook = hook
				e.RoundHookEvery = every
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocatorThroughput measures the allocation path of each
// manager under steady churn (allocations per op).
func BenchmarkAllocatorThroughput(b *testing.B) {
	for _, name := range mm.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			c := int64(16)
			cfg := sim.Config{M: 1 << 14, N: 1 << 6, C: c, Pow2Only: true}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mgr, err := mm.New(name)
				if err != nil {
					b.Fatal(err)
				}
				prog := workload.NewRandom(workload.Config{Seed: 3, Rounds: 30})
				e, err := sim.NewEngine(cfg, prog, mgr)
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(res.Allocated * 8) // words as 8-byte units
			}
		})
	}
}
