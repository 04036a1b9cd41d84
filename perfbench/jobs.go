package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"compaction/internal/service"
	"compaction/internal/sweep"
)

// jobsConfig sizes the compactd-jobs workload: a closed loop of one
// client per CPU, each submitting its next job only after the last
// one's result arrived.
type jobsConfig struct {
	Jobs     int // per pass
	M, N     int64
	Cs       []int64
	Rounds   int
	Managers []string // cycled by job index
}

var jobsDefault = jobsConfig{Jobs: 100, M: 4096, N: 64, Cs: []int64{4, 16}, Rounds: 50,
	Managers: []string{"first-fit", "tlsf", "threshold", "bitmap-first-fit"}}

// body is job k's submission. Heatmap and stream stay at their
// defaults (heatmap on every round, round events streamed).
func (jc jobsConfig) body(seed int64, k int) ([]byte, error) {
	return json.Marshal(map[string]any{
		"program": "random", "manager": jc.Managers[k%len(jc.Managers)],
		"m": jc.M, "n": jc.N, "cs": jc.Cs, "rounds": jc.Rounds, "seed": seed + int64(k),
	})
}

// jobTiming is one job as its client saw it.
type jobTiming struct {
	post, posted, firstRound, running, end, resultStart, resultDone time.Time

	code  int    // POST status
	state string // last state line on the event stream
	csv   []byte
	err   error
}

// compactd is one pass's server: a durable data directory, the
// service, and an httptest listener on the loopback interface.
type compactd struct {
	dir    string
	srv    *service.Server
	ts     *httptest.Server
	cancel context.CancelFunc
}

// startCompactd boots a server on dir. The service creates dir with
// its first job, so the set-up holds no directory operation: on the
// machine the benchmark was built on, a mkdir right after the last
// pass's directory was removed took 0.6-0.8 ms for seconds at a time,
// against 0.03 ms otherwise, and would have decided setup_s.
func startCompactd(ctx context.Context, dir string) (*compactd, error) {
	srv := service.New(service.Config{Dir: dir})
	sctx, cancel := context.WithCancel(ctx)
	if warns := srv.Start(sctx); len(warns) > 0 {
		cancel()
		return nil, fmt.Errorf("compactd boot: %v", warns[0])
	}
	return &compactd{dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler()), cancel: cancel}, nil
}

func (c *compactd) close() {
	c.ts.Close()
	c.cancel()
	c.srv.Wait()
	os.RemoveAll(c.dir)
}

// runJob drives one job through the API: submit, follow the NDJSON
// event stream to its terminal state line, then fetch the result.
func runJob(ctx context.Context, client *http.Client, base string, body []byte, jt *jobTiming) {
	jt.post = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		jt.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		jt.err = err
		return
	}
	var st struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	jt.posted = time.Now()
	jt.code = resp.StatusCode
	if resp.StatusCode != http.StatusCreated || derr != nil {
		jt.err = fmt.Errorf("submit: %s (%v)", resp.Status, derr)
		return
	}

	ev, err := get(ctx, client, base+"/v1/jobs/"+st.ID+"/events")
	if err != nil {
		jt.err = err
		return
	}
	rd := bufio.NewReader(ev.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			if jt.firstRound.IsZero() && bytes.Contains(line, []byte(`"ev":"round"`)) {
				jt.firstRound = now
			} else if bytes.Contains(line, []byte(`"ev":"state"`)) {
				var sl struct {
					State string `json:"state"`
				}
				if json.Unmarshal(line, &sl) == nil {
					jt.state = sl.State
					if sl.State == "running" {
						jt.running = now
					}
				}
			}
		}
		if err != nil {
			break
		}
	}
	ev.Body.Close()
	jt.end = time.Now()

	jt.resultStart = time.Now()
	res, err := get(ctx, client, base+"/v1/jobs/"+st.ID+"/result")
	if err != nil {
		jt.err = err
		return
	}
	jt.csv, err = io.ReadAll(res.Body)
	res.Body.Close()
	jt.resultDone = time.Now()
	if err != nil {
		jt.err = err
	} else if res.StatusCode != http.StatusOK {
		jt.err = fmt.Errorf("result: %s", res.Status)
	}
}

func get(ctx context.Context, client *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return client.Do(req)
}

// referenceCSV runs job k's spec in-process through sweep.RunOpts, as
// the service would without a store, tracer or heap probes.
func referenceCSV(ctx context.Context, body []byte) ([]byte, error) {
	sp, err := service.ParseSpec(body)
	if err != nil {
		return nil, err
	}
	cells, err := sp.Cells()
	if err != nil {
		return nil, err
	}
	outs, err := sweep.RunOpts(ctx, cells, sweep.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	return csvOf(outs), nil
}

func runJobsWorkload(ctx context.Context, rc runConfig, jc jobsConfig) (*report, error) {
	rep := newReport()
	bodies := make([][]byte, jc.Jobs)
	for k := range bodies {
		b, err := jc.body(rc.seed, k)
		if err != nil {
			return nil, err
		}
		bodies[k] = b
	}

	var (
		walls, tracedWalls, cpus []float64
		users                    []float64
		jobMS, firstMS           []float64
		perManager               = map[string][]float64{}
		passesOut                [][]jobTiming
		tracedOut                [][]jobTiming
		proc                     procDelta
		peaks                    passPeaks
	)
	// A set-up as the passes below do it, timed by passLoop.
	setUp := func() (func(), error) {
		c, err := startCompactd(ctx, filepath.Join(rc.scratch, "setup"))
		if err != nil {
			return nil, err
		}
		return c.close, nil
	}
	setup, err := passLoop(rc, setUp, func(i int, traced bool) error {
		c, err := startCompactd(ctx, filepath.Join(rc.scratch, "pass"+strconv.Itoa(i)))
		if err != nil {
			return err
		}
		defer c.close()
		client := c.ts.Client()
		timings := make([]jobTiming, jc.Jobs)
		var next atomic.Int64
		var wg sync.WaitGroup
		if !traced {
			peaks.begin()
		}
		before := sampleProc()
		c0, u0, t0 := procCPU(), procUserCPU(), time.Now()
		for w := 0; w < rc.procs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1) - 1)
					if k >= jc.Jobs {
						return
					}
					runJob(ctx, client, c.ts.URL, bodies[k], &timings[k])
				}
			}()
		}
		wg.Wait()
		wall, cpu, user := time.Since(t0), procCPU()-c0, procUserCPU()-u0
		after := sampleProc()
		if !traced {
			peaks.end()
		}
		passesOut = append(passesOut, timings)
		if traced {
			proc.add(before, after)
			tracedWalls = append(tracedWalls, seconds(wall))
			tracedOut = append(tracedOut, timings)
			return nil
		}
		walls = append(walls, seconds(wall))
		cpus = append(cpus, seconds(cpu))
		users = append(users, seconds(user))
		for k, jt := range timings {
			d := jt.resultDone.Sub(jt.post)
			jobMS = append(jobMS, ms(d))
			firstMS = append(firstMS, ms(jt.firstRound.Sub(jt.post)))
			m := jc.Managers[k%len(jc.Managers)]
			perManager[m] = append(perManager[m], seconds(d))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Correctness, outside the timed region: every job accepted, done,
	// and its result equal to the in-process run of its spec.
	rejected := 0
	for k, body := range bodies {
		want, err := referenceCSV(ctx, body)
		if err != nil {
			return nil, err
		}
		for i, timings := range passesOut {
			jt := timings[k]
			if jt.code == http.StatusTooManyRequests {
				rejected++
			}
			rep.check(jt.err == nil && jt.state == "done" && bytes.Equal(jt.csv, want),
				"pass %d job %d: state %q, err %v, result matches reference: %t",
				i, k, jt.state, jt.err, bytes.Equal(jt.csv, want))
		}
	}
	rep.notef("%d jobs per pass (random, cs %v, M=%d, n=%d, %d rounds; managers %v), %d clients, %d passes",
		jc.Jobs, jc.Cs, jc.M, jc.N, jc.Rounds, jc.Managers, rc.procs, len(passesOut))

	cellsPerJob := float64(len(jc.Cs))
	if !rc.trace {
		wall := median(walls)
		setCPUMetrics(rep, setup, cpus, users, jc.Jobs*len(jc.Cs))
		rep.set("wall_s", wall, "s")
		rep.set("cells_per_s", float64(jc.Jobs)*cellsPerJob/wall, "cells/s")
		for _, m := range pfDefault.Managers {
			rep.set("run_s."+m, median(perManager[m]), "s")
		}
		rep.set("job_p50_ms", quantile(jobMS, 0.5), "ms")
		rep.set("job_p95_ms", quantile(jobMS, 0.95), "ms")
		rep.set("first_event_p50_ms", quantile(firstMS, 0.5), "ms")
		rep.set("first_event_p95_ms", quantile(firstMS, 0.95), "ms")
		rep.set("jobs_per_s", float64(jc.Jobs)/wall, "jobs/s")
		rss := peaks.median()
		rep.set("peak_rss_mb", rss/(1<<20), "MB")
		rep.set("rss_bytes_per_live_word", rss/float64(jc.M), "B")
		rep.notef("job = POST to /result body, %d samples (tail rule allows %q)",
			len(jobMS), tailPercentile(len(jobMS)))
		return rep, nil
	}

	var submit, queue, run, result, jobs, first []float64
	for p, timings := range tracedOut {
		for k, jt := range timings {
			submit = append(submit, ms(jt.posted.Sub(jt.post)))
			queue = append(queue, ms(max(jt.running.Sub(jt.posted), 0)))
			run = append(run, ms(jt.end.Sub(jt.running)))
			result = append(result, ms(jt.resultDone.Sub(jt.resultStart)))
			jobs = append(jobs, ms(jt.resultDone.Sub(jt.post)))
			first = append(first, ms(jt.firstRound.Sub(jt.post)))
			rep.spans = append(rep.spans, span{Name: "job", ID: int64(k), Parent: "pass/" + strconv.Itoa(p),
				Start: ms(jt.post.Sub(timings[0].post)), End: ms(jt.resultDone.Sub(timings[0].post))})
		}
	}
	passes := float64(len(tracedOut))
	rep.set("service.submit_ms_p50", quantile(submit, 0.5), "ms")
	rep.set("service.submit_ms_p95", quantile(submit, 0.95), "ms")
	rep.set("service.queue_ms_p50", quantile(queue, 0.5), "ms")
	rep.set("service.run_ms_p50", quantile(run, 0.5), "ms")
	rep.set("service.result_ms_p50", quantile(result, 0.5), "ms")
	rep.set("service.job_p50_ms", quantile(jobs, 0.5), "ms")
	rep.set("service.job_p95_ms", quantile(jobs, 0.95), "ms")
	rep.set("service.first_event_p50_ms", quantile(first, 0.5), "ms")
	rep.set("service.first_event_p95_ms", quantile(first, 0.95), "ms")
	rep.set("service.jobs_per_s", float64(jc.Jobs)/median(tracedWalls), "jobs/s")
	rep.set("service.rejected", float64(rejected)/float64(len(passesOut)), "count")
	rep.set("service.write_bytes_per_job", float64(proc.wchar)/(passes*float64(jc.Jobs)), "B")
	setProcMetrics(rep, proc, passes, median(tracedWalls)/median(walls))
	return rep, nil
}
