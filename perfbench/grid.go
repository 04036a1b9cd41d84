package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"compaction/internal/dist"
	"compaction/internal/mm"
	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"
)

// gridConfig sizes the churn-grid and dist-grid workloads: the random
// churn program over Cs × every registered manager.
type gridConfig struct {
	Rounds int
	M, N   int64
	Cs     []int64
	Sample int // cells re-run in-process for the churn-grid check
}

var gridDefault = gridConfig{Rounds: 20, M: 1024, N: 16, Cs: span1(60), Sample: 16}

// span1 returns 1..n.
func span1(n int) []int64 {
	cs := make([]int64, n)
	for i := range cs {
		cs[i] = int64(i + 1)
	}
	return cs
}

func (gc gridConfig) spec(seed int64) dist.GridSpec {
	return dist.GridSpec{Program: "random", Seed: seed, Rounds: gc.Rounds, M: gc.M, N: gc.N,
		Cs: gc.Cs, Managers: mm.Names()}
}

// gridPass is one pass's state: the cells, where they keep durable
// state, and when each cell started and finished running.
type gridPass struct {
	dir    string
	cells  []sweep.Cell
	began  time.Time
	starts []time.Time
	ends   []time.Time

	journal *resume.Journal // churn-grid

	coord   *dist.Coordinator // dist-grid
	ledger  *resume.Ledger
	workers []*dist.Worker
	pipes   []io.Closer
	served  sync.WaitGroup
	calls   *callStats
	mon     *sweep.Monitor
}

// setupGrid builds a pass: a fresh directory, the expanded grid and,
// for the single-process path, an empty journal; for the distributed
// path a ledger, a coordinator and one in-process worker per CPU, each
// talking NDJSON to the coordinator over an io.Pipe pair.
func setupGrid(rc runConfig, spec dist.GridSpec, dir string, distributed, traced bool) (*gridPass, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cells, tasks, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	p := &gridPass{dir: dir, cells: cells,
		starts: make([]time.Time, len(cells)), ends: make([]time.Time, len(cells))}
	if !distributed {
		for i := range p.cells {
			mk := p.cells[i].Program
			p.cells[i].Program = func() sim.Program {
				p.starts[i] = time.Now()
				return mk()
			}
		}
		p.journal, err = resume.Open(filepath.Join(dir, "journal.ckpt"))
		return p, err
	}
	if p.ledger, err = resume.OpenLedger(filepath.Join(dir, "ledger")); err != nil {
		return nil, err
	}
	opts := dist.Options{Params: spec.Params()}
	if traced {
		p.mon = sweep.NewMonitor(nil)
		opts.Monitor = p.mon
		p.calls = newCallStats()
	}
	if p.coord, err = dist.NewCoordinator(tasks, p.ledger, opts); err != nil {
		p.ledger.Close()
		return nil, err
	}
	hooks := dist.Hooks{
		AfterClaim:   func(cell int) { p.starts[cell] = time.Now() },
		BeforeCommit: func(cell int) { p.ends[cell] = time.Now() },
	}
	for w := 0; w < rc.procs; w++ {
		reqR, reqW := io.Pipe()
		respR, respW := io.Pipe()
		p.served.Add(1)
		go func() {
			defer p.served.Done()
			// ServeLines returns once the worker side hangs up; its
			// error only says which side closed first.
			_ = dist.ServeLines(p.coord, reqR, respW)
			respW.Close()
		}()
		var conn dist.Conn = dist.NewLineConn(respR, reqW)
		if traced {
			conn = &timedConn{inner: conn, st: p.calls}
		}
		p.workers = append(p.workers, dist.NewWorker(conn, dist.WorkerOptions{
			ID: "w" + strconv.Itoa(w), Hooks: hooks}))
		p.pipes = append(p.pipes, reqW, respR)
	}
	return p, nil
}

// run executes the pass and returns the merged outcomes.
func (p *gridPass) run(ctx context.Context, rc runConfig, spec dist.GridSpec) ([]sweep.Outcome, error) {
	p.began = time.Now()
	if p.coord == nil {
		outs, err := sweep.RunOpts(ctx, p.cells, sweep.Options{
			Parallelism: rc.procs, Journal: p.journal, Params: spec.Params(),
			OnCell: func(cell int, _ sweep.Outcome) { p.ends[cell] = time.Now() },
		})
		if err != nil {
			return outs, err
		}
		if len(sweep.Holes(outs)) == 0 {
			err = p.journal.Remove()
		}
		return outs, err
	}
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	var wg sync.WaitGroup
	errs := make([]error, len(p.workers))
	for i, w := range p.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(runCtx, runCtx)
		}()
	}
	werr := p.coord.Wait(ctx)
	stop()
	wg.Wait()
	if werr != nil {
		return nil, werr
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	return p.coord.Outcomes(), nil
}

// close stops the pass's goroutines and deletes its directory.
func (p *gridPass) close() {
	for _, c := range p.pipes {
		c.Close()
	}
	p.served.Wait()
	if p.ledger != nil {
		p.ledger.Close()
	}
	os.RemoveAll(p.dir)
}

func csvOf(outs []sweep.Outcome) []byte {
	var b bytes.Buffer
	_ = sweep.WriteCSV(&b, outs) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

func runGridWorkload(ctx context.Context, rc runConfig, gc gridConfig, distributed bool) (*report, error) {
	rep := newReport()
	spec := gc.spec(rc.seed)
	dirOf := func(tag string) string { return filepath.Join(rc.scratch, tag) }

	// The reference: the same grid in-process, no journal, no leases.
	refCells, _, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	refOuts, err := sweep.RunOpts(ctx, refCells, sweep.Options{Parallelism: rc.procs})
	if err != nil {
		return nil, err
	}
	refCSV := csvOf(refOuts)
	rep.check(len(sweep.Holes(refOuts)) == 0, "reference sweep has holes %v", sweep.Holes(refOuts))
	if !distributed {
		// A seeded sample of cells, one at a time in a fresh sweep.
		rng := rand.New(rand.NewSource(rc.seed))
		for k := 0; k < gc.Sample; k++ {
			i := rng.Intn(len(refCells))
			outs, err := sweep.RunOpts(ctx, refCells[i:i+1], sweep.Options{Parallelism: 1})
			if err != nil {
				return nil, err
			}
			rep.check(outs[0].Err == nil && sameResult(outs[0].Result, refOuts[i].Result),
				"cell %d re-run alone differs: %+v vs %+v", i, outs[0].Result, refOuts[i].Result)
		}
	}

	var (
		walls, tracedWalls, cpus []float64
		users                    []float64
		perManager               = map[string][]float64{}
		cellMS                   []float64
		proc                     procDelta
		peaks                    passPeaks
		traced                   []*gridPass
		tracedPasses             int
	)
	// A set-up as the passes below do it, timed by passLoop.
	setUp := func() (func(), error) {
		p, err := setupGrid(rc, spec, dirOf("setup"), distributed, false)
		if err != nil {
			return nil, err
		}
		return p.close, nil
	}
	setup, err := passLoop(rc, setUp, func(i int, isTraced bool) error {
		p, err := setupGrid(rc, spec, dirOf("pass"+strconv.Itoa(i)), distributed, isTraced)
		if err != nil {
			return err
		}
		defer p.close()
		if !isTraced {
			peaks.begin()
		}
		before := sampleProc()
		c0, u0, t0 := procCPU(), procUserCPU(), time.Now()
		outs, err := p.run(ctx, rc, spec)
		wall, cpu, user := time.Since(t0), procCPU()-c0, procUserCPU()-u0
		after := sampleProc()
		if !isTraced {
			peaks.end()
		}
		if err != nil {
			return err
		}
		// Correctness, outside the timed region: every cell's CSV row
		// (a hole's row carries its error) must match the reference.
		bad := diffRows(csvOf(outs), refCSV)
		rep.attempted += int64(len(outs))
		rep.failed += int64(bad)
		if bad > 0 {
			rep.notef("FAILED: pass %d: %d of %d cells differ from the in-process reference (%d holes)",
				i, bad, len(outs), len(sweep.Holes(outs)))
		}
		for k := range outs {
			if p.ends[k].IsZero() || p.starts[k].IsZero() {
				rep.check(false, "pass %d: cell %d has no run span", i, k)
			}
		}
		perPass := map[string]time.Duration{}
		for k, c := range p.cells {
			d := p.ends[k].Sub(p.starts[k])
			perPass[c.Manager] += d
			if !isTraced {
				cellMS = append(cellMS, ms(d))
			}
		}
		if isTraced {
			proc.add(before, after)
			tracedPasses++
			traced = append(traced, p)
			tracedWalls = append(tracedWalls, seconds(wall))
		} else {
			walls = append(walls, seconds(wall))
			cpus = append(cpus, seconds(cpu))
			users = append(users, seconds(user))
			for m, d := range perPass {
				perManager[m] = append(perManager[m], seconds(d))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	path := "sweep.RunOpts + resume.Journal"
	if distributed {
		path = "dist.Coordinator + resume.Ledger, LineConn workers"
	}
	rep.notef("%d cells (%d c values x %d managers) via %s, %d workers", len(refCells),
		len(gc.Cs), len(spec.Managers), path, rc.procs)
	if !rc.trace {
		wall := median(walls)
		setCPUMetrics(rep, setup, cpus, users, len(refCells))
		rep.set("wall_s", wall, "s")
		rep.set("cells_per_s", float64(len(refCells))/wall, "cells/s")
		for _, m := range pfDefault.Managers {
			rep.set("run_s."+m, median(perManager[m]), "s")
		}
		rep.set("job_p50_ms", quantile(cellMS, 0.5), "ms")
		rep.set("job_p95_ms", quantile(cellMS, 0.95), "ms")
		rss := peaks.median()
		rep.set("peak_rss_mb", rss/(1<<20), "MB")
		rep.set("rss_bytes_per_live_word", rss/float64(gc.M), "B")
		rep.notef("%d passes, wall_s %.3f; job = one cell, %d samples (tail rule allows %q)",
			len(walls), walls, len(cellMS), tailPercentile(len(cellMS)))
		return rep, nil
	}

	passes := float64(tracedPasses)
	cells := float64(len(refCells))
	var runMS []float64
	var overhead, growth []float64
	for k, p := range traced {
		var sum time.Duration
		for c := range p.cells {
			d := p.ends[c].Sub(p.starts[c])
			sum += d
			runMS = append(runMS, ms(d))
			rep.spans = append(rep.spans, span{Name: "cell", ID: int64(c), Parent: "pass/" + strconv.Itoa(k),
				Start: ms(p.starts[c].Sub(p.began)), End: ms(p.ends[c].Sub(p.began))})
		}
		overhead = append(overhead, (tracedWalls[k]*float64(rc.procs)-seconds(sum))*1e3/cells)
		growth = append(growth, overheadGrowth(p, rc.procs))
	}
	prefix := "sweep."
	if distributed {
		prefix = "dist."
		var st callStats
		var reassigned, fenced int64
		for _, p := range traced {
			st.merge(p.calls)
			snap := p.mon.Snapshot()
			reassigned += snap.LeasesReassigned
			fenced += snap.CommitsFenced
		}
		claims, commits := st.ops["claim"], st.ops["commit"]
		rep.set("dist.claim_ms_p50", quantile(claims, 0.5), "ms")
		rep.set("dist.claim_ms_p99", quantile(claims, 0.99), "ms")
		rep.set("dist.commit_ms_p50", quantile(commits, 0.5), "ms")
		rep.set("dist.commit_ms_p99", quantile(commits, 0.99), "ms")
		rep.set("dist.calls_per_cell", float64(st.calls)/(passes*cells), "count")
		rep.set("dist.empty_claims", float64(st.empty)/passes, "count")
		rep.set("dist.reassigned", float64(reassigned)/passes, "count")
		rep.set("dist.fenced", float64(fenced)/passes, "count")
		rep.notef("lease calls: %d claims, %d commits (tail rule allows %q)", len(claims), len(commits),
			tailPercentile(len(claims)))
	} else {
		rep.set("sweep.overhead_ms_per_cell", median(overhead), "ms")
		rep.set("sweep.overhead_growth", median(growth), "ratio")
	}
	rep.set(prefix+"cell_run_ms_p50", quantile(runMS, 0.5), "ms")
	rep.set(prefix+"write_bytes_per_cell", float64(proc.wchar)/(passes*cells), "B")
	setProcMetrics(rep, proc, passes, median(tracedWalls)/median(walls))
	return rep, nil
}

// overheadGrowth is the sweep's per-cell overhead in the last tenth of
// cells to finish divided by that in the first tenth. Within a tenth,
// overhead is the tenth's wall span times the workers, less the cells'
// run time, per cell.
func overheadGrowth(p *gridPass, workers int) float64 {
	idx := make([]int, len(p.cells))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.ends[idx[a]].Before(p.ends[idx[b]]) })
	tenth := len(idx) / 10
	if tenth == 0 {
		return 0
	}
	per := func(group []int) float64 {
		first, last := p.starts[group[0]], p.ends[group[len(group)-1]]
		var run time.Duration
		for _, c := range group {
			if p.starts[c].Before(first) {
				first = p.starts[c]
			}
			run += p.ends[c].Sub(p.starts[c])
		}
		return (seconds(last.Sub(first))*float64(workers) - seconds(run)) / float64(len(group))
	}
	head := per(idx[:tenth])
	if head <= 0 {
		return 0
	}
	return per(idx[len(idx)-tenth:]) / head
}

// callStats aggregates lease-protocol calls seen by timedConn.
type callStats struct {
	mu    sync.Mutex
	ops   map[string][]float64 // per-op round-trip times, ms
	calls int64
	empty int64 // claims that granted nothing with the grid unsettled
}

func newCallStats() *callStats { return &callStats{ops: map[string][]float64{}} }

func (s *callStats) merge(o *callStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if s.ops == nil {
		s.ops = map[string][]float64{}
	}
	for k, v := range o.ops {
		s.ops[k] = append(s.ops[k], v...)
	}
	s.calls += o.calls
	s.empty += o.empty
}

// timedConn times each lease-protocol round trip by op.
type timedConn struct {
	inner dist.Conn
	st    *callStats
}

func (c *timedConn) Call(ctx context.Context, req dist.Request) (dist.Response, error) {
	t0 := time.Now()
	resp, err := c.inner.Call(ctx, req)
	d := time.Since(t0)
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	c.st.ops[req.Op] = append(c.st.ops[req.Op], ms(d))
	c.st.calls++
	if err == nil && req.Op == "claim" && resp.Task == nil && !resp.Done {
		c.st.empty++
	}
	return resp, err
}

// diffRows counts the data rows of two CSVs that differ, plus any rows
// one has beyond the other.
func diffRows(a, b []byte) int {
	ra, rb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := 0
	for i := 0; i < len(ra) || i < len(rb); i++ {
		if i >= len(ra) || i >= len(rb) || !bytes.Equal(ra[i], rb[i]) {
			n++
		}
	}
	return n
}
