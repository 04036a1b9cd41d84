package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	_ "compaction/internal/mm/all"
)

// startServer boots a Server under httptest and tears it down in
// order: cancel the context (closing job logs and so every blocked
// stream), drain the job goroutines, then close the HTTP server —
// httptest.Close waits for outstanding requests, so the streams must
// be unblocked first.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := New(cfg)
	for _, w := range s.Start(ctx) {
		t.Logf("recovery warning: %v", w)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		cancel()
		s.Wait()
		hs.Close()
	})
	return s, hs
}

// request performs one API call and returns the response and body.
func request(t *testing.T, method, url, token string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// submit POSTs a spec and decodes the acknowledgment.
func submit(t *testing.T, base, token, spec string) (Status, *http.Response) {
	t.Helper()
	resp, body := request(t, "POST", base+"/v1/jobs", token, []byte(spec))
	var st Status
	if resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decoding submit response %q: %v", body, err)
		}
	}
	return st, resp
}

func mustSubmit(t *testing.T, base, token, spec string) Status {
	t.Helper()
	st, resp := submit(t, base, token, spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: got %d, want 201", resp.StatusCode)
	}
	return st
}

// streamNDJSON reads the job's full NDJSON stream until the server
// ends it — which happens exactly when the job is terminal — and
// returns the raw bytes.
func streamNDJSON(t *testing.T, base, token, id string, from int) []byte {
	t.Helper()
	url := fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", base, id, from)
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: got %d, want 200", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// getStatus fetches and decodes a job's status.
func getStatus(t *testing.T, base, token, id string) Status {
	t.Helper()
	resp, body := request(t, "GET", base+"/v1/jobs/"+id, token, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: got %d (%s)", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls until the job settles.
func waitTerminal(t *testing.T, base, token, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, base, token, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// quickSpec is a small deterministic job: 2 managers × 1 bound.
const quickSpec = `{"program":"pf","manager":"first-fit","m":1024,"n":16,"cs":[64,256],"rounds":20,"parallelism":1}`

// longSpec runs long enough that tests can observe and cancel it
// mid-flight, and cheap enough per round that cancellation (polled at
// round boundaries) lands promptly. It must be a workload program:
// those run for exactly the requested rounds, where the paper
// adversaries (pf) terminate on their own once their phases are spent.
const longSpec = `{"program":"random","manager":"first-fit","m":1024,"n":16,"cs":[64],"rounds":100000000,"stream":"off"}`

// TestSubmitStreamResult is the service happy path end to end:
// submit, follow the live stream to completion, fetch status and the
// result CSV.
func TestSubmitStreamResult(t *testing.T) {
	_, hs := startServer(t, Config{})
	st, resp := submit(t, hs.URL, "", quickSpec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: got %d, want 201", resp.StatusCode)
	}
	if got := resp.Header.Get("Location"); got != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q, want %q", got, "/v1/jobs/"+st.ID)
	}
	if st.Cells != 2 {
		t.Errorf("cells = %d, want 2", st.Cells)
	}

	stream := streamNDJSON(t, hs.URL, "", st.ID, 0)
	lines := strings.Split(strings.TrimSuffix(string(stream), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("stream has %d lines, want at least queued+running+rounds+done", len(lines))
	}
	if !strings.Contains(lines[0], `"state":"queued"`) {
		t.Errorf("first line %q is not the queued state", lines[0])
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"state":"done"`) || !strings.Contains(last, `"failed":0`) {
		t.Errorf("final line %q is not a clean done state", last)
	}
	rounds := 0
	for _, ln := range lines {
		if strings.Contains(ln, `"ev":"round"`) {
			rounds++
		}
	}
	if rounds == 0 {
		t.Error("stream carried no round events")
	}

	final := waitTerminal(t, hs.URL, "", st.ID)
	if final.State != StateDone || final.Done != 2 || final.Failed != 0 {
		t.Fatalf("final status = %+v, want done 2/2", final)
	}

	resp, csv := request(t, "GET", hs.URL+"/v1/jobs/"+st.ID+"/result", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: got %d (%s)", resp.StatusCode, csv)
	}
	csvLines := strings.Split(strings.TrimSuffix(string(csv), "\n"), "\n")
	if len(csvLines) != 3 { // header + one row per cell
		t.Fatalf("result CSV has %d lines, want 3:\n%s", len(csvLines), csv)
	}
	if !strings.HasPrefix(csvLines[0], "label,manager,") {
		t.Errorf("result CSV header = %q", csvLines[0])
	}
}

// TestCancelJob exercises DELETE: a running job settles canceled, its
// stream terminates with the canceled state, and the result endpoint
// serves the partial CSV.
func TestCancelJob(t *testing.T) {
	_, hs := startServer(t, Config{})
	st := mustSubmit(t, hs.URL, "", longSpec)

	// Wait until the job is actually running so the cancel exercises
	// the cooperative path, not the queued fast path.
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, hs.URL, "", st.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, _ := request(t, "DELETE", hs.URL+"/v1/jobs/"+st.ID, "", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: got %d, want 202", resp.StatusCode)
	}
	final := waitTerminal(t, hs.URL, "", st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}

	stream := streamNDJSON(t, hs.URL, "", st.ID, 0)
	if !strings.Contains(string(stream), `"state":"canceled"`) {
		t.Error("stream did not end with the canceled state")
	}

	// Canceling a terminal job is idempotent: 200 with the settled
	// status, no state change.
	resp, body := request(t, "DELETE", hs.URL+"/v1/jobs/"+st.ID, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-cancel: got %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestValidation pins the 400 surface: malformed JSON, unknown fields,
// unknown programs and managers, invalid configs.
func TestValidation(t *testing.T) {
	_, hs := startServer(t, Config{})
	for _, bad := range []string{
		`{`,
		`{"program":"pf"}`,
		`{"program":"pf","manager":"first-fit","m":1024,"n":16}`,
		`{"program":"pf","manager":"first-fit","m":1024,"n":16,"c":64,"cs":[64]}`,
		`{"program":"nope","manager":"first-fit","m":1024,"n":16,"c":64}`,
		`{"program":"pf","manager":"nope","m":1024,"n":16,"c":64}`,
		`{"program":"pf","manager":"first-fit","m":1024,"n":48,"c":64}`,
		`{"program":"pf","manager":"first-fit","m":1024,"n":16,"c":64,"paralellism":4}`,
		`{"program":"pf","manager":"first-fit","m":1024,"n":16,"c":64,"stream":"verbose"}`,
	} {
		if _, resp := submit(t, hs.URL, "", bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: got %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestAuthAndQuotas covers the tenant surface deterministically:
// unknown tokens are 401; quotas count queued+running jobs, so a
// tenant at its job cap gets a 429 (with Retry-After) no matter how
// fast the machine is, and a spec exceeding the cell cap is rejected
// outright; other tenants are unaffected; tenants only see their own
// jobs.
func TestAuthAndQuotas(t *testing.T) {
	_, hs := startServer(t, Config{
		Tenants: []Tenant{
			{Token: "tok-a", Name: "alice", MaxJobs: 1, MaxCells: 64},
			{Token: "tok-b", Name: "bob", MaxJobs: 2, MaxCells: 4},
		},
	})

	if _, resp := submit(t, hs.URL, "", quickSpec); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: got %d, want 401", resp.StatusCode)
	}
	if _, resp := submit(t, hs.URL, "wrong", quickSpec); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token: got %d, want 401", resp.StatusCode)
	}
	// The token is read from the Authorization header only: a valid
	// one in the query string is no credential.
	if resp, _ := request(t, "POST", hs.URL+"/v1/jobs?token=tok-a", "", []byte(quickSpec)); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("token in ?token= only: got %d, want 401", resp.StatusCode)
	}

	// Alice's single job slot, held by a long job.
	held := mustSubmit(t, hs.URL, "tok-a", longSpec)
	_, resp := submit(t, hs.URL, "tok-a", quickSpec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over job quota: got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Bob is unaffected by alice's saturation, but his 4-cell cap
	// rejects an 8-cell sweep.
	if _, resp := submit(t, hs.URL, "tok-b", quickSpec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("bob submit: got %d, want 201", resp.StatusCode)
	}
	eight := `{"program":"pf","manager":"first-fit","m":1024,"n":16,"cs":[8,16,32,64,128,256,512,1024],"rounds":20}`
	if _, resp := submit(t, hs.URL, "tok-b", eight); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over cell quota: got %d, want 429", resp.StatusCode)
	}

	// Tenant isolation: bob cannot see or cancel alice's job.
	if resp, _ := request(t, "GET", hs.URL+"/v1/jobs/"+held.ID, "tok-b", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cross-tenant status: got %d, want 404", resp.StatusCode)
	}
	if resp, _ := request(t, "DELETE", hs.URL+"/v1/jobs/"+held.ID, "tok-b", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cross-tenant cancel: got %d, want 404", resp.StatusCode)
	}
	resp, body := request(t, "GET", hs.URL+"/v1/jobs", "tok-b", nil)
	if resp.StatusCode != http.StatusOK || strings.Contains(string(body), held.ID) {
		t.Errorf("bob's listing leaked alice's job: %d %s", resp.StatusCode, body)
	}

	// Freeing the slot re-opens admission.
	request(t, "DELETE", hs.URL+"/v1/jobs/"+held.ID, "tok-a", nil)
	waitTerminal(t, hs.URL, "tok-a", held.ID)
	if _, resp := submit(t, hs.URL, "tok-a", quickSpec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("after release: got %d, want 201", resp.StatusCode)
	}
}

// TestMultiTenantStress hammers one server from four tenants at once —
// submissions bouncing off tight quotas, streams, cancellations —
// under the race detector, with and without a store: with one, every
// followed stream moves from memory to its file under its reader.
// Every tenant must land its target number of completed jobs, every
// quota rejection must be a clean 429, and the final accounting must
// balance.
func TestMultiTenantStress(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%t", durable), func(t *testing.T) {
			var cfg Config
			if durable {
				cfg.Dir = t.TempDir()
			}
			stress(t, cfg)
		})
	}
}

func stress(t *testing.T, cfg Config) {
	const (
		tenants    = 4
		jobsWanted = 3
	)
	cfg.MaxActive = 2
	for i := 0; i < tenants; i++ {
		cfg.Tenants = append(cfg.Tenants, Tenant{
			Token: fmt.Sprintf("tok-%d", i), Name: fmt.Sprintf("tenant-%d", i),
			MaxJobs: 2, MaxCells: 16,
		})
	}
	s, hs := startServer(t, cfg)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		rejected int
	)
	for i := 0; i < tenants; i++ {
		token := fmt.Sprintf("tok-%d", i)
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			completed := 0
			for attempt := 0; completed < jobsWanted; attempt++ {
				if attempt > 500 {
					t.Errorf("%s: %d submissions without landing %d jobs", token, attempt, jobsWanted)
					return
				}
				spec := fmt.Sprintf(
					`{"program":"pf","manager":"first-fit","m":1024,"n":16,"cs":[64,256],"rounds":25,"seed":%d,"parallelism":1}`,
					seed*100+attempt+1)
				st, resp := submit(t, hs.URL, token, spec)
				switch resp.StatusCode {
				case http.StatusCreated:
				case http.StatusTooManyRequests:
					mu.Lock()
					rejected++
					mu.Unlock()
					time.Sleep(time.Millisecond)
					continue
				default:
					t.Errorf("%s: unexpected status %d", token, resp.StatusCode)
					return
				}
				// Exercise the readers concurrently with the run: every
				// job's stream is followed to the end, some while also
				// being canceled mid-flight.
				if completed%3 == 1 {
					request(t, "DELETE", hs.URL+"/v1/jobs/"+st.ID, token, nil)
				}
				streamNDJSON(t, hs.URL, token, st.ID, 0)
				final := waitTerminal(t, hs.URL, token, st.ID)
				if final.State == StateDone || final.State == StateCanceled {
					completed++
				} else {
					t.Errorf("%s: job %s settled %s: %s", token, st.ID, final.State, final.Error)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	s.mu.Lock()
	for name, u := range s.usage {
		if u.jobs != 0 || u.cells != 0 {
			t.Errorf("tenant %s: leaked quota charge jobs=%d cells=%d", name, u.jobs, u.cells)
		}
	}
	s.mu.Unlock()
	t.Logf("stress: %d quota rejections across %d tenants", rejected, tenants)
}

// TestDashboardAndHealth pins the non-API surface: the dashboard is
// served at the root (and only the root), health checks pass, the
// Prometheus endpoint exposes the service counters, and the retired
// duplicates (SSE stream, plain-text metrics, expvar) answer 404.
func TestDashboardAndHealth(t *testing.T) {
	_, hs := startServer(t, Config{})
	resp, body := request(t, "GET", hs.URL+"/", "", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "compactd") {
		t.Errorf("dashboard: %d", resp.StatusCode)
	}
	if resp, _ := request(t, "GET", hs.URL+"/nope", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: got %d, want 404", resp.StatusCode)
	}
	if resp, body := request(t, "GET", hs.URL+"/healthz", "", nil); resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
	st := mustSubmit(t, hs.URL, "", quickSpec)
	resp, body = request(t, "GET", hs.URL+"/metrics/prom", "", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "\nservice_jobs_submitted 1\n") {
		t.Errorf("metrics: %d\n%s", resp.StatusCode, body)
	}
	for _, path := range []string{"/v1/jobs/" + st.ID + "/stream", "/metrics", "/debug/vars"} {
		if resp, _ := request(t, "GET", hs.URL+path, "", nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: got %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestDashboardRoutesExist: every /v1/ path the dashboard requests,
// with a real job ID substituted for each ${…}, is routed by Handler
// under the method the page uses — no 404, no 405. A page left
// pointing at a retired route fails here.
func TestDashboardRoutesExist(t *testing.T) {
	_, hs := startServer(t, Config{})
	id := mustSubmit(t, hs.URL, "", quickSpec).ID
	waitTerminal(t, hs.URL, "", id)
	// A quoted or template literal starting /v1/, and the rest of its
	// statement, where fetch's options sit.
	literal := regexp.MustCompile("[\"`](/v1/[^\"`]*)[\"`]([^;]*)")
	method := regexp.MustCompile(`method:\s*"([A-Z]+)"`)
	param := regexp.MustCompile(`\$\{[^}]*\}`)
	seen := map[string]bool{}
	for _, m := range literal.FindAllSubmatch(dashboardHTML, -1) {
		verb := "GET"
		if v := method.FindSubmatch(m[2]); v != nil {
			verb = string(v[1])
		}
		route := verb + " " + string(m[1])
		seen[route] = true
		path := param.ReplaceAllString(string(m[1]), id)
		resp, _ := request(t, verb, hs.URL+path, "", nil)
		t.Logf("%s → %d", route, resp.StatusCode)
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("dashboard requests %s: got %d", route, resp.StatusCode)
		}
	}
	if !seen["GET /v1/jobs/${id}/events"] {
		t.Fatalf("found no request for the event stream among %v", seen)
	}
}
