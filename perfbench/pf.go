package main

import (
	"context"
	"fmt"
	"time"

	"compaction/internal/bounds"
	"compaction/internal/check"
	"compaction/internal/core"
	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"

	// The manager portfolio registers itself with mm.
	_ "compaction"
)

// pfConfig sizes the pf-refereed workload.
type pfConfig struct {
	M, N     word.Size
	C        int64
	Every    int // referee sampling stride (sim.Engine.RoundHookEvery)
	Managers []string
}

// pfDefault is the tier-1 paper-scale smoke test (M=2^24) at 1/64
// scale, against a non-moving manager, a compacting one, and the one
// whose P_F cost grows faster than M.
var pfDefault = pfConfig{M: 1 << 17, N: 1 << 12, C: 16, Every: 64,
	Managers: []string{"first-fit", "threshold", "bitmap-first-fit"}}

func (pc pfConfig) sim() sim.Config {
	return sim.Config{M: pc.M, N: pc.N, C: pc.C, Pow2Only: true}
}

// pfTrace is one traced refereed P_F run's layer timings.
type pfTrace struct {
	step, placed, moved durStat
	atRef, atMgr        managerStats // engine→referee, referee→manager
	roundHook           durStat
	run                 time.Duration // the engine's Run span
	outer               time.Duration // build + Run, timed independently of the spans
	runStart            time.Time
	roundStarts         []time.Time
	heapLiveMax         uint64
	capacity            word.Size
	ops                 []replayOp // Allocate/Free stream, when recorded
}

func (t *pfTrace) sampleHeap() {
	if h := heapLive(); h > t.heapLiveMax {
		t.heapLiveMax = h
	}
}

// pfRun is one refereed run's outcome.
type pfRun struct {
	res        sim.Result
	err        error
	violations int
	wall       time.Duration // engine run only; set-up is setup_s
	cpu        time.Duration // process CPU time over the same interval
	user       time.Duration // its user part
}

// buildPF assembles the refereed engine exactly as check.RunSampled
// does, with the decorators in place when t is non-nil.
func buildPF(pc pfConfig, manager string, t *pfTrace, record bool) (*sim.Engine, *check.Referee, error) {
	mgr, err := mm.New(manager)
	if err != nil {
		return nil, nil, err
	}
	var prog sim.Program = core.NewPF(core.Options{})
	inner := mgr
	if t != nil {
		prog = &timedProgram{p: prog, t: t}
		var rec *[]replayOp
		if record {
			rec = &t.ops
		}
		inner = wrapManager(mgr, &t.atMgr, true, rec, func(cfg sim.Config) { t.capacity = cfg.Capacity })
	}
	ref := check.NewReferee(inner)
	ref.SetSampleEvery(pc.Every)
	var outer sim.Manager = ref
	if t != nil {
		outer = wrapManager(ref, &t.atRef, false, nil, nil)
	}
	e, err := sim.NewEngine(pc.sim(), prog, outer)
	if err != nil {
		return nil, nil, err
	}
	e.RoundHook = ref.CheckRound
	if t != nil {
		e.RoundHook = func(res sim.Result) {
			t0 := time.Now()
			ref.CheckRound(res)
			t.roundHook.add(time.Since(t0))
		}
	}
	e.RoundHookEvery = pc.Every
	return e, ref, nil
}

func runPF(pc pfConfig, manager string, t *pfTrace, record bool) pfRun {
	tb := time.Now()
	e, ref, err := buildPF(pc, manager, t, record)
	if err != nil {
		return pfRun{err: err}
	}
	c0, u0, t0 := procCPU(), procUserCPU(), time.Now()
	res, err := e.Run()
	wall, cpu, user := time.Since(t0), procCPU()-c0, procUserCPU()-u0
	if t != nil {
		t.runStart, t.run, t.outer = t0, wall, time.Since(tb)
	}
	return pfRun{res: res, err: err, violations: len(ref.Violations()), wall: wall, cpu: cpu, user: user}
}

// sameResult compares the model outcome of two runs.
func sameResult(a, b sim.Result) bool {
	return a.HighWater == b.HighWater && a.Rounds == b.Rounds && a.Allocs == b.Allocs &&
		a.Frees == b.Frees && a.Moves == b.Moves && a.Moved == b.Moved &&
		a.Allocated == b.Allocated && a.MaxLive == b.MaxLive
}

// layerTimes are the self times of one traced run, in the order the
// reconciliation sums them.
type layerTimes struct {
	simSelf, coreStep, coreCallback   time.Duration
	mmAllocSelf, mmFree, mmStartRound time.Duration
	checkSelf, checkRoundHook         time.Duration
}

func (t *pfTrace) layers() layerTimes {
	o, in := &t.atRef, &t.atMgr
	l := layerTimes{
		coreStep:       t.step.Busy,
		coreCallback:   t.placed.Busy + t.moved.Busy,
		mmAllocSelf:    in.alloc.Busy - in.moveAlloc.Busy,
		mmFree:         in.free.Busy,
		mmStartRound:   in.start.Busy - in.moveStart.Busy,
		checkSelf:      (o.alloc.Busy - in.alloc.Busy) + (o.free.Busy - in.free.Busy) + (o.start.Busy - in.start.Busy),
		checkRoundHook: t.roundHook.Busy,
	}
	// What the engine's Run span holds beyond its children: the
	// engine's own validation and bookkeeping, plus the move path
	// (referee spy, engine mover) outside P_F's Moved callback.
	l.simSelf = t.run - l.coreStep - l.coreCallback - l.mmAllocSelf - l.mmFree - l.mmStartRound -
		l.checkSelf - l.checkRoundHook
	return l
}

func (l *layerTimes) add(o layerTimes) {
	l.simSelf += o.simSelf
	l.coreStep += o.coreStep
	l.coreCallback += o.coreCallback
	l.mmAllocSelf += o.mmAllocSelf
	l.mmFree += o.mmFree
	l.mmStartRound += o.mmStartRound
	l.checkSelf += o.checkSelf
	l.checkRoundHook += o.checkRoundHook
}

func (l layerTimes) sum() time.Duration {
	return l.simSelf + l.coreStep + l.coreCallback + l.mmAllocSelf + l.mmFree + l.mmStartRound +
		l.checkSelf + l.checkRoundHook
}

// replayHeap feeds a recorded first-fit Allocate/Free stream straight
// into a fresh heap.FreeSpace and reports the operation count, the
// time, the largest free-interval count seen and how many placements
// differ from the recorded ones.
func replayHeap(ops []replayOp, capacity word.Size) (n int, d time.Duration, maxIntervals, mismatches int, err error) {
	fs := heap.NewFreeSpace(capacity)
	t0 := time.Now()
	for _, op := range ops {
		if op.size < 0 {
			if err := fs.Release(heap.Span{Addr: op.addr, Size: -op.size}); err != nil {
				return 0, 0, 0, 0, err
			}
		} else {
			addr, err := fs.AllocFirstFit(op.size)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			if addr != op.addr {
				mismatches++
			}
		}
		if k := fs.Intervals(); k > maxIntervals {
			maxIntervals = k
		}
	}
	return len(ops), time.Since(t0), maxIntervals, mismatches, nil
}

func runPFWorkload(ctx context.Context, rc runConfig, pc pfConfig) (*report, error) {
	rep := newReport()
	h, ell, err := bounds.Theorem1(bounds.Params{M: pc.M, N: pc.N, C: pc.C})
	if err != nil {
		return nil, err
	}
	// P_F is deterministic: it has no input for the seed to vary.
	order := pc.Managers
	var (
		untracedWall, tracedWall []float64
		runTimes, runCPU         = map[string][]float64{}, map[string][]float64{}
		untracedCPU, untracedUsr []float64
		jobMS                    []float64
		first                    = map[string]sim.Result{}
		traces                   = map[string][]*pfTrace{}
		proc                     procDelta
		peaks                    passPeaks
		tracedPasses             int
		replayed                 bool
	)
	// A set-up as the passes below do it, timed by passLoop.
	setUp := func() (func(), error) {
		for _, m := range order {
			if _, _, err := buildPF(pc, m, nil, false); err != nil {
				return nil, err
			}
		}
		return func() {}, nil
	}
	setup, err := passLoop(rc, setUp, func(i int, traced bool) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		var before procSample
		if traced {
			before = sampleProc()
		} else {
			peaks.begin()
		}
		var wall, cpu, user time.Duration
		for _, m := range order {
			var t *pfTrace
			if traced {
				t = &pfTrace{}
			}
			record := traced && m == "first-fit" && !replayed
			r := runPF(pc, m, t, record)
			wall += r.wall
			cpu += r.cpu
			user += r.user
			// Correctness, outside the timed region.
			rep.check(r.err == nil, "%s: run error: %v", m, r.err)
			rep.check(r.violations == 0, "%s: %d referee violations", m, r.violations)
			hsm := r.res.WasteFactor()
			rep.check(hsm >= h, "%s: HS/M = %.4f below the Theorem 1 floor %.4f", m, hsm, h)
			if ref, ok := first[m]; ok {
				rep.check(sameResult(ref, r.res), "%s: pass %d (traced=%t) result %+v differs from %+v", m, i, traced, r.res, ref)
			} else {
				first[m] = r.res
			}
			if traced {
				traces[m] = append(traces[m], t)
				if record {
					replayed = true
					n, d, maxIv, bad, err := replayHeap(t.ops, t.capacity)
					rep.check(err == nil && bad == 0, "heap replay: %d of %d placements differ from first-fit (err %v)", bad, n, err)
					rep.set("heap.replay_ops", float64(n), "count")
					rep.set("heap.ns_per_op", float64(d.Nanoseconds())/float64(max(n, 1)), "ns")
					rep.set("heap.free_intervals_max", float64(maxIv), "count")
					t.ops = nil
				}
			} else {
				runTimes[m] = append(runTimes[m], seconds(r.wall))
				runCPU[m] = append(runCPU[m], seconds(r.cpu))
				jobMS = append(jobMS, ms(r.wall))
			}
		}
		if traced {
			proc.add(before, sampleProc())
			tracedPasses++
			tracedWall = append(tracedWall, seconds(wall))
		} else {
			peaks.end()
			untracedWall = append(untracedWall, seconds(wall))
			untracedCPU = append(untracedCPU, seconds(cpu))
			untracedUsr = append(untracedUsr, seconds(user))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep.notef("P_F M=%d n=%d c=%d under check.Referee (sample every %d); Theorem 1 floor h=%.4f (ell=%d); order %v",
		pc.M, pc.N, pc.C, pc.Every, h, ell, order)
	for _, m := range order {
		hsm := first[m].WasteFactor()
		rep.notef("%s: HS/M=%.4f rounds=%d allocs=%d moves=%d moved=%d", m, hsm,
			first[m].Rounds, first[m].Allocs, first[m].Moves, first[m].Moved)
	}
	for _, m := range pc.Managers {
		rep.set("run_cpu_s."+m, median(runCPU[m]), "s")
	}
	if !rc.trace {
		wall := median(untracedWall)
		setCPUMetrics(rep, setup, untracedCPU, untracedUsr, len(order))
		rep.set("wall_s", wall, "s")
		rep.set("cells_per_s", float64(len(order))/wall, "cells/s")
		for _, m := range pc.Managers {
			rep.set("run_s."+m, median(runTimes[m]), "s")
		}
		rep.set("job_p50_ms", quantile(jobMS, 0.5), "ms")
		rep.set("job_p95_ms", quantile(jobMS, 0.95), "ms")
		rss := peaks.median()
		rep.set("peak_rss_mb", rss/(1<<20), "MB")
		rep.set("rss_bytes_per_live_word", rss/float64(pc.M), "B")
		rep.notef("%d passes, wall_s %.3f; job = one refereed run, %d samples (tail rule allows %q)",
			len(untracedWall), untracedWall, len(jobMS), tailPercentile(len(jobMS)))
		return rep, nil
	}

	// Per-layer metrics: means per traced pass.
	passes := float64(tracedPasses)
	var total layerTimes
	var rounds int
	var heapMax uint64
	for _, m := range pc.Managers {
		var st managerStats
		for _, t := range traces[m] {
			st.alloc.merge(t.atMgr.alloc)
			st.free.merge(t.atMgr.free)
			st.start.merge(t.atMgr.start)
			st.moveAlloc.merge(t.atMgr.moveAlloc)
			st.moveStart.merge(t.atMgr.moveStart)
			total.add(t.layers())
			rounds += len(t.roundStarts)
			if t.heapLiveMax > heapMax {
				heapMax = t.heapLiveMax
			}
		}
		rep.set("mm.alloc_calls."+m, float64(st.alloc.N)/passes, "count")
		rep.set("mm.alloc_self_s."+m, seconds(st.alloc.Busy-st.moveAlloc.Busy)/passes, "s")
		rep.set("mm.free_s."+m, seconds(st.free.Busy)/passes, "s")
		rep.set("mm.startround_s."+m, seconds(st.start.Busy-st.moveStart.Busy)/passes, "s")
		rep.set("mm.moves."+m, float64(first[m].Moves), "count")
		rep.set("mm.moved_words."+m, float64(first[m].Moved), "words")
		rep.hists["mm.alloc."+m] = st.alloc
		rep.hists["mm.free."+m] = st.free
		rep.hists["mm.move."+m] = st.moveAlloc
	}
	var run, outer time.Duration
	for _, m := range order {
		for k, t := range traces[m] {
			run += t.run
			outer += t.outer
			rep.spans = append(rep.spans, span{Name: "run", ID: int64(k), Parent: m, End: ms(t.run)})
			for r, s := range t.roundStarts {
				end := t.runStart.Add(t.run)
				if r+1 < len(t.roundStarts) {
					end = t.roundStarts[r+1]
				}
				rep.spans = append(rep.spans, span{Name: "round", ID: int64(r),
					Parent: fmt.Sprintf("run/%s/%d", m, k),
					Start:  ms(s.Sub(t.runStart)), End: ms(end.Sub(t.runStart))})
			}
		}
	}
	rep.set("sim.rounds", float64(rounds)/passes, "count")
	rep.set("sim.run_s", seconds(run)/passes, "s")
	rep.set("sim.self_s", seconds(total.simSelf)/passes, "s")
	rep.set("core.step_s", seconds(total.coreStep)/passes, "s")
	rep.set("core.callback_s", seconds(total.coreCallback)/passes, "s")
	rep.set("check.self_s", seconds(total.checkSelf)/passes, "s")
	rep.set("check.round_hook_s", seconds(total.checkRoundHook)/passes, "s")
	rep.set("mem.go_heap_bytes_per_live_word", float64(heapMax)/float64(pc.M), "B")
	// The layers' self times against the run time measured around the
	// whole refereed run (build included) by a separate pair of clock
	// reads; README.md states the accepted margin.
	rep.set("trace.reconcile", seconds(total.sum())/seconds(outer), "ratio")
	setProcMetrics(rep, proc, passes, median(tracedWall)/median(untracedWall))
	return rep, nil
}

// setProcMetrics reports the process counters per traced pass and the
// tracing overhead.
func setProcMetrics(rep *report, d procDelta, passes, overhead float64) {
	rep.set("proc.cpu_s", seconds(d.cpu)/passes, "s")
	rep.set("proc.gc_cycles", float64(d.gc)/passes, "count")
	rep.set("proc.gc_pause_ms", float64(d.pauseNs)/1e6/passes, "ms")
	rep.set("proc.alloc_mb", float64(d.alloc)/(1<<20)/passes, "MB")
	rep.set("trace.overhead", overhead, "ratio")
}
