package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"compaction/internal/faultinject"
	"compaction/internal/mm"
	_ "compaction/internal/mm/all"
	"compaction/internal/obs"
	"compaction/internal/sim"
)

// combinedDoc mirrors the combined heatmap wire schema for decoding.
type combinedDoc struct {
	V     int               `json:"v"`
	Job   string            `json:"job"`
	Cells []json.RawMessage `json:"cells"`
}

// TestHeatmapEndpoint: a terminal job serves a frozen combined
// document — valid JSON, one heapscope artifact per cell, identical
// bytes on every read — and /heapstats reports per-cell summaries.
func TestHeatmapEndpoint(t *testing.T) {
	_, hs := startServer(t, Config{})
	st := mustSubmit(t, hs.URL, "", quickSpec)
	final := waitTerminal(t, hs.URL, "", st.ID)
	if final.State != StateDone || final.Failed != 0 {
		t.Fatalf("job settled %s (failed=%d): %s", final.State, final.Failed, final.Error)
	}

	resp, doc := request(t, "GET", hs.URL+"/v1/jobs/"+st.ID+"/heatmap", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heatmap: %d %s", resp.StatusCode, doc)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var d combinedDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatalf("combined heatmap is not valid JSON: %v\n%s", err, doc)
	}
	if d.V != 1 || d.Job != st.ID || len(d.Cells) != final.Cells {
		t.Fatalf("combined header = v%d job %s cells %d, want v1 %s %d",
			d.V, d.Job, len(d.Cells), st.ID, final.Cells)
	}
	for i, c := range d.Cells {
		var cell struct {
			V     int               `json:"v"`
			Tiers []json.RawMessage `json:"tiers"`
		}
		if err := json.Unmarshal(c, &cell); err != nil || cell.V != 1 || len(cell.Tiers) != 3 {
			t.Fatalf("cell %d artifact malformed (err=%v): %s", i, err, c)
		}
	}

	// Terminal bytes are frozen: a second read is identical.
	if _, again := request(t, "GET", hs.URL+"/v1/jobs/"+st.ID+"/heatmap", "", nil); !bytes.Equal(doc, again) {
		t.Fatal("two reads of a terminal heatmap differ")
	}

	resp, body := request(t, "GET", hs.URL+"/v1/jobs/"+st.ID+"/heapstats", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heapstats: %d %s", resp.StatusCode, body)
	}
	var stats struct {
		Cells []*struct {
			Samples   int   `json:"samples"`
			HighWater int64 `json:"high_water"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("heapstats not JSON: %v\n%s", err, body)
	}
	if len(stats.Cells) != final.Cells {
		t.Fatalf("heapstats covers %d cells, want %d", len(stats.Cells), final.Cells)
	}
	for i, c := range stats.Cells {
		if c == nil || c.Samples == 0 || c.HighWater == 0 {
			t.Fatalf("cell %d stats empty: %+v", i, c)
		}
	}
}

// TestHeatmapDisabled: heatmap "off" turns both endpoints into 404s
// and skips sampling entirely.
func TestHeatmapDisabled(t *testing.T) {
	_, hs := startServer(t, Config{})
	st := mustSubmit(t, hs.URL, "",
		`{"program":"pf","manager":"first-fit","m":1024,"n":16,"c":64,"rounds":20,"heatmap":"off"}`)
	waitTerminal(t, hs.URL, "", st.ID)
	for _, ep := range []string{"/heatmap", "/heapstats"} {
		if resp, body := request(t, "GET", hs.URL+"/v1/jobs/"+st.ID+ep, "", nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with heatmap off: %d %s", ep, resp.StatusCode, body)
		}
	}
}

// TestHeatmapSpecRejectsBadMode: validation, not silent defaulting.
func TestHeatmapSpecRejectsBadMode(t *testing.T) {
	if _, err := ParseSpec([]byte(
		`{"program":"pf","manager":"first-fit","m":1024,"n":16,"c":64,"heatmap":"maybe"}`)); err == nil {
		t.Fatal("heatmap=maybe accepted")
	}
	if _, err := ParseSpec([]byte(
		`{"program":"pf","manager":"first-fit","m":1024,"n":16,"c":64,"heatmap_every":-1}`)); err == nil {
		t.Fatal("heatmap_every=-1 accepted")
	}
}

// TestHeatmapResumeByteIdentical is the acceptance drill for the
// heatmap artifact: kill a server mid-sweep, resume on a new boot,
// and require the terminal combined heatmap to be byte-identical to
// an uninterrupted run of the same spec — restored cells serve the
// artifact persisted before their checkpoint, fresh cells recompute
// deterministically.
func TestHeatmapResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	id := runInterrupted(t, dir)

	_, hs2 := startServer(t, Config{Dir: dir})
	final := waitTerminal(t, hs2.URL, "", id)
	if final.State != StateDone || final.Failed != 0 || final.Restored == 0 {
		t.Fatalf("resumed job settled %+v, want clean done with restores", final)
	}
	resp, resumed := request(t, "GET", hs2.URL+"/v1/jobs/"+id+"/heatmap", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed heatmap: %d", resp.StatusCode)
	}

	// Reference: the same spec uninterrupted on a fresh server (same
	// first job ID, so the documents are comparable verbatim).
	_, hsRef := startServer(t, Config{})
	ref := mustSubmit(t, hsRef.URL, "", interruptSpec)
	if ref.ID != id {
		t.Fatalf("reference job id %s != %s; documents not comparable", ref.ID, id)
	}
	waitTerminal(t, hsRef.URL, "", ref.ID)
	resp, clean := request(t, "GET", hsRef.URL+"/v1/jobs/"+ref.ID+"/heatmap", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean heatmap: %d", resp.StatusCode)
	}
	if !bytes.Equal(resumed, clean) {
		t.Errorf("resumed heatmap differs from a clean run (%d vs %d bytes)", len(resumed), len(clean))
	}

	// A third boot adopts the terminal job and serves the same bytes
	// straight from disk.
	_, hs3 := startServer(t, Config{Dir: dir})
	resp, adopted := request(t, "GET", hs3.URL+"/v1/jobs/"+id+"/heatmap", "", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(adopted, resumed) {
		t.Errorf("adopted heatmap differs from the settled one (%d)", resp.StatusCode)
	}
}

// TestPromEndpointOnService: the service mounts the Prometheus
// exposition under /metrics/prom and the output parses.
func TestPromEndpointOnService(t *testing.T) {
	_, hs := startServer(t, Config{})
	resp, body := request(t, "GET", hs.URL+"/metrics/prom", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/prom: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if !bytes.Contains(body, []byte("# TYPE service_jobs_submitted counter")) {
		t.Fatalf("service counters missing from exposition:\n%s", body)
	}
}

// TestHeapStatsSurviveRestart: a terminal job's /heapstats body is
// frozen at settle and persisted beside its heatmap, so a restarted
// server that adopts the job answers with the same bytes.
func TestHeapStatsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s, hs := startServer(t, Config{Dir: dir})
	st := mustSubmit(t, hs.URL, "", quickSpec)
	waitTerminal(t, hs.URL, "", st.ID)
	s.Wait() // the job's settle has persisted its terminal record
	resp, before := request(t, "GET", hs.URL+"/v1/jobs/"+st.ID+"/heapstats", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heapstats before restart: %d %s", resp.StatusCode, before)
	}
	var stats struct {
		Cells []*struct {
			Samples int `json:"samples"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(before, &stats); err != nil || len(stats.Cells) != st.Cells {
		t.Fatalf("heapstats before restart (err=%v): %s", err, before)
	}
	for i, c := range stats.Cells {
		if c == nil || c.Samples == 0 {
			t.Fatalf("cell %d has no statistics: %s", i, before)
		}
	}

	_, hs2 := startServer(t, Config{Dir: dir})
	resp, after := request(t, "GET", hs2.URL+"/v1/jobs/"+st.ID+"/heapstats", "", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(after, before) {
		t.Errorf("heapstats after restart = %d %s, want 200 %s", resp.StatusCode, after, before)
	}
}

// TestRetainedBytesGauge: service.retained_bytes counts exactly the
// bytes terminal jobs serve from memory — their /heatmap, /heapstats,
// /result and /events bodies — and is exported on /metrics/prom.
func TestRetainedBytesGauge(t *testing.T) {
	s, hs := startServer(t, Config{})
	var want int64
	for i := 0; i < 3; i++ {
		st := mustSubmit(t, hs.URL, "", quickSpec)
		want += int64(len(streamNDJSON(t, hs.URL, "", st.ID, 0)))
		waitTerminal(t, hs.URL, "", st.ID)
		for _, ep := range []string{"/heatmap", "/heapstats", "/result"} {
			resp, body := request(t, "GET", hs.URL+"/v1/jobs/"+st.ID+ep, "", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s of %s: %d %s", ep, st.ID, resp.StatusCode, body)
			}
			want += int64(len(body))
		}
	}
	s.Wait() // every settle, the gauge's update included, has returned

	resp, body := request(t, "GET", hs.URL+"/metrics/prom", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/prom: %d", resp.StatusCode)
	}
	fams, err := obs.ParsePrometheus(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, f := range fams {
		if f.Name != "service_retained_bytes" {
			continue
		}
		if f.Type != "gauge" || len(f.Samples) != 1 {
			t.Fatalf("service_retained_bytes = %+v, want one gauge sample", f)
		}
		if got := f.Samples[0].Value; got != float64(want) {
			t.Fatalf("service_retained_bytes = %v, want %d (the served bodies' total)", got, want)
		}
		return
	}
	t.Fatalf("service_retained_bytes missing from the exposition:\n%s", body)
}

// flakyManager is registered for the service tests: first-fit failing
// its 400th allocation. Every attempt of its cells fails at the same
// point, so a retried cell settles the same way on every run.
const flakyManager = "flaky-first-fit"

func init() {
	mm.Register(flakyManager, func() sim.Manager {
		m, err := mm.New("first-fit")
		if err != nil {
			panic(err)
		}
		return faultinject.FailAllocAt(m, 400)
	})
}

// TestSamplersUnderConcurrency: two tenants' jobs run at once, each
// sweeping its cells in parallel with retries, while readers poll
// /heatmap and /heapstats. Every cell attempt samples into a sampler
// of its own; if one were ever shared by two live cells, or read after
// its cell settled, the terminal documents would differ from the same
// spec run alone (and the race detector would object).
func TestSamplersUnderConcurrency(t *testing.T) {
	specs := []string{
		// Every manager, the flaky one included: its two cells fail,
		// retry once and fail again.
		`{"program":"random","manager":"all","m":1024,"n":16,"cs":[8,32],"rounds":30,"seed":3,"parallelism":3,"retries":1}`,
		// A sharded sampler shape.
		`{"program":"random","manager":"sharded-first-fit","m":1024,"n":16,"cs":[4,8,16],"rounds":30,"seed":4,"shards":4,"parallelism":3}`,
	}
	type job struct {
		token, id string
		spec      int
	}
	cfg := Config{MaxActive: 4, Tenants: []Tenant{
		{Token: "tok-a", Name: "a"}, {Token: "tok-b", Name: "b"},
	}}
	_, hs := startServer(t, cfg)
	var jobs []job
	for _, tok := range []string{"tok-a", "tok-b"} {
		for i, sp := range specs {
			jobs = append(jobs, job{tok, mustSubmit(t, hs.URL, tok, sp).ID, i})
		}
	}

	var wg sync.WaitGroup
	for _, jb := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				terminal := getStatus(t, hs.URL, jb.token, jb.id).State.Terminal()
				for _, ep := range []string{"/heatmap", "/heapstats"} {
					resp, body := request(t, "GET", hs.URL+"/v1/jobs/"+jb.id+ep, jb.token, nil)
					if resp.StatusCode != http.StatusOK || !json.Valid(body) {
						t.Errorf("%s of %s: %d %s", ep, jb.id, resp.StatusCode, body)
						return
					}
				}
				if terminal {
					return
				}
			}
		}()
	}
	wg.Wait()

	// The same specs, each run alone.
	alone := make([]map[string][]byte, len(specs))
	for i, sp := range specs {
		_, ref := startServer(t, Config{})
		st := mustSubmit(t, ref.URL, "", sp)
		waitTerminal(t, ref.URL, "", st.ID)
		alone[i] = terminalDocs(t, ref.URL, "", st.ID)
	}
	for _, jb := range jobs {
		final := waitTerminal(t, hs.URL, jb.token, jb.id)
		if jb.spec == 0 && (final.Failed != 2 || final.Retries != 2) {
			t.Errorf("job %s: failed=%d retries=%d, want the flaky manager's 2 cells retried and failed",
				jb.id, final.Failed, final.Retries)
		}
		got := terminalDocs(t, hs.URL, jb.token, jb.id)
		for ep, want := range alone[jb.spec] {
			if !bytes.Equal(got[ep], want) {
				t.Errorf("job %s (spec %d): %s differs from the spec run alone\n got %.300s\nwant %.300s",
					jb.id, jb.spec, ep, got[ep], want)
			}
		}
	}
}

// terminalDocs fetches a terminal job's per-cell heatmap artifacts and
// its /heapstats body, keyed by what they came from; the combined
// heatmap's job ID is left out so runs under different IDs compare.
func terminalDocs(t *testing.T, base, token, id string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	resp, doc := request(t, "GET", base+"/v1/jobs/"+id+"/heatmap", token, nil)
	var d combinedDoc
	if resp.StatusCode != http.StatusOK || json.Unmarshal(doc, &d) != nil {
		t.Fatalf("heatmap of %s: %d %.200s", id, resp.StatusCode, doc)
	}
	for i, c := range d.Cells {
		out[fmt.Sprintf("heatmap cell %d", i)] = c
	}
	resp, out["heapstats"] = request(t, "GET", base+"/v1/jobs/"+id+"/heapstats", token, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heapstats of %s: %d", id, resp.StatusCode)
	}
	return out
}
