package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"compaction/internal/obs"

	_ "compaction/internal/mm/all"
)

// bodyRoutes are the four bodies a terminal job serves.
var bodyRoutes = []string{"/result", "/heatmap", "/heapstats", "/events"}

// fetchBodies fetches a terminal job's four bodies, keyed by route.
func fetchBodies(t *testing.T, base, id string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(bodyRoutes))
	for _, route := range bodyRoutes {
		resp, body := request(t, "GET", base+"/v1/jobs/"+id+route, "", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s of %s: %d %s", route, id, resp.StatusCode, body)
		}
		out[route] = body
	}
	return out
}

// streamLines splits a stream into its lines, newlines kept.
func streamLines(stream []byte) []string {
	lines := strings.SplitAfter(string(stream), "\n")
	return lines[:len(lines)-1] // the empty tail after the last newline
}

// checkSuffixes requires /events?from=N to serve the stream's suffix
// from line N, for every N up to one past its end.
func checkSuffixes(t *testing.T, base, id string, lines []string) {
	t.Helper()
	for from := 0; from <= len(lines)+1; from++ {
		want := strings.Join(lines[min(from, len(lines)):], "")
		if got := streamNDJSON(t, base, "", id, from); string(got) != want {
			t.Fatalf("%s: /events?from=%d is not the stream's suffix from line %d:\n-- got --\n%s-- want --\n%s",
				base, from, from, got, want)
		}
	}
}

// TestTerminalBodiesSurviveRestart: a durable job's terminal bodies
// are served from its store directory, so a restarted server that
// adopts it answers /result, /heatmap, /heapstats and /events byte for
// byte as the settling server did, the whole stream included, and
// /events?from=N is the stream's suffix from line N on both. Readers
// tailing a running job's stream follow it from memory into its file
// without losing or repeating a line.
func TestTerminalBodiesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s, hs := startServer(t, Config{Dir: dir})

	// interruptSpec runs for tens of milliseconds a cell with a short
	// stream, so its tails wait in memory while it runs and are
	// woken when the stream moves to disk.
	long := mustSubmit(t, hs.URL, "", interruptSpec)
	const tails = 4
	got := make([][]byte, tails)
	live := make([]bool, tails)
	var wg sync.WaitGroup
	for from := 0; from < tails; from++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", hs.URL, long.ID, from))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			// The headers arrive with the first line served: the
			// reader is following the stream from here.
			if st, ok := s.job(Tenant{}, long.ID); ok {
				live[from] = !st.Status().State.Terminal()
			}
			if got[from], err = io.ReadAll(resp.Body); err != nil {
				t.Error(err)
			}
		}()
	}
	quick := mustSubmit(t, hs.URL, "", quickSpec)
	for _, id := range []string{long.ID, quick.ID} {
		if final := waitTerminal(t, hs.URL, "", id); final.State != StateDone || final.Failed != 0 {
			t.Fatalf("job %s settled %s (failed=%d): %s", id, final.State, final.Failed, final.Error)
		}
	}
	wg.Wait()
	s.Wait() // both settles have returned

	before := map[string]map[string][]byte{}
	for _, id := range []string{long.ID, quick.ID} {
		before[id] = fetchBodies(t, hs.URL, id)
	}
	lines := streamLines(before[long.ID]["/events"])
	if !strings.Contains(lines[len(lines)-1], `"state":"done"`) {
		t.Fatalf("stream of %s does not end in its terminal state line: %q", long.ID, lines[len(lines)-1])
	}
	if !slices.Contains(live, true) {
		t.Fatalf("job %s settled before any tail reached its stream", long.ID)
	}
	for from, tail := range got {
		if want := strings.Join(lines[from:], ""); string(tail) != want {
			t.Errorf("tail from %d (live at connect: %t) differs from the stream's suffix:\n-- got --\n%s-- want --\n%s",
				from, live[from], tail, want)
		}
	}
	checkSuffixes(t, hs.URL, quick.ID, streamLines(before[quick.ID]["/events"]))

	_, hs2 := startServer(t, Config{Dir: dir})
	for id, want := range before {
		after := fetchBodies(t, hs2.URL, id)
		for _, route := range bodyRoutes {
			if !bytes.Equal(after[route], want[route]) {
				t.Errorf("job %s: %s after restart differs (%d bytes, want %d):\n-- got --\n%.400s\n-- want --\n%.400s",
					id, route, len(after[route]), len(want[route]), after[route], want[route])
			}
		}
	}
	checkSuffixes(t, hs2.URL, quick.ID, streamLines(before[quick.ID]["/events"]))
	checkSuffixes(t, hs2.URL, long.ID, lines)
}

// TestDoneJobKeepsOnlyItsBodies: a job that settles done without holes
// keeps in its directory only its submission, its terminal status and
// the four bodies it serves. The journal and the per-cell heatmaps,
// which only a resumed run reads, are gone.
func TestDoneJobKeepsOnlyItsBodies(t *testing.T) {
	dir := t.TempDir()
	s, hs := startServer(t, Config{Dir: dir})
	st := mustSubmit(t, hs.URL, "", quickSpec)
	if final := waitTerminal(t, hs.URL, "", st.ID); final.State != StateDone || final.Failed != 0 {
		t.Fatalf("job settled %s (failed=%d): %s", final.State, final.Failed, final.Error)
	}
	s.Wait() // its settle has returned
	ents, err := os.ReadDir(filepath.Join(dir, "jobs", st.ID))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := []string{eventsFile, heapStatsFile, heatmapFile, "job.json", resultFile, statusFile}
	if !slices.Equal(names, want) {
		t.Errorf("done job's directory holds %q, want %q", names, want)
	}
}

// TestFullLogDropsEventsUnencoded: once the log holds
// DefaultEventLogLimit lines and its truncation marker, an engine
// event is dropped before it is encoded, so appendObs allocates
// nothing.
func TestFullLogDropsEventsUnencoded(t *testing.T) {
	l := newEventLog()
	ev := obs.Event{Kind: obs.EvRound, Round: 3}
	for i := 0; i <= DefaultEventLogLimit; i++ { // the last call writes the marker
		l.appendObs(0, ev)
	}
	if allocs := testing.AllocsPerRun(100, func() { l.appendObs(0, ev) }); allocs != 0 {
		t.Errorf("appendObs on a full log: %v allocs per call, want 0", allocs)
	}
	if n := len(l.lines); n != DefaultEventLogLimit+1 || !l.isTruncated() {
		t.Errorf("full log holds %d lines (truncated %t), want the limit and the marker", n, l.isTruncated())
	}
}

// truncSpec is a "stream":"all" job of three cells, each emitting
// about 25,000 engine events, so its stream passes
// DefaultEventLogLimit lines; truncated, it is about 5 MB.
const truncSpec = `{"program":"random","manager":"first-fit","m":4096,"n":64,"cs":[4,8,16],"rounds":50,"seed":%d,"stream":"all"}`

// TestStreamTruncation: a stream that passes DefaultEventLogLimit
// lines keeps its first lines, then a log-truncated marker, then every
// state line still to come; the status reports log_truncated, and a
// restarted server serves the same bytes.
func TestStreamTruncation(t *testing.T) {
	dir := t.TempDir()
	_, hs := startServer(t, Config{Dir: dir})
	st := mustSubmit(t, hs.URL, "", fmt.Sprintf(truncSpec, 1))
	stream := streamNDJSON(t, hs.URL, "", st.ID, 0)
	final := waitTerminal(t, hs.URL, "", st.ID)
	if final.State != StateDone || final.Failed != 0 || !final.LogTruncated {
		t.Fatalf("job settled %+v, want done with log_truncated", final)
	}
	lines := streamLines(stream)
	if len(lines) != DefaultEventLogLimit+2 {
		t.Fatalf("stream has %d lines, want the limit %d, the marker and the terminal state line",
			len(lines), DefaultEventLogLimit)
	}
	var states []string
	for i, ln := range lines {
		if !strings.HasPrefix(ln, fmt.Sprintf(`{"seq":%d,`, i)) {
			t.Fatalf("line %d is not numbered %d: %q", i, i, ln)
		}
		if strings.Contains(ln, `"ev":"state"`) {
			states = append(states, ln[strings.Index(ln, `"state":"`):])
		}
	}
	if marker := fmt.Sprintf(`{"seq":%d,"ev":"log-truncated"}`+"\n", DefaultEventLogLimit); lines[DefaultEventLogLimit] != marker {
		t.Errorf("line %d = %q, want the marker %q", DefaultEventLogLimit, lines[DefaultEventLogLimit], marker)
	}
	if len(states) != 3 || !strings.HasPrefix(states[0], `"state":"queued"`) ||
		!strings.HasPrefix(states[1], `"state":"running"`) || !strings.HasPrefix(states[2], `"state":"done"`) {
		t.Errorf("state lines %q, want queued, running, done", states)
	}

	_, hs2 := startServer(t, Config{Dir: dir})
	if again := streamNDJSON(t, hs2.URL, "", st.ID, 0); !bytes.Equal(again, stream) {
		t.Errorf("restarted server streams %d bytes, want the settling server's %d", len(again), len(stream))
	}
	if adopted := getStatus(t, hs2.URL, "", st.ID); !adopted.LogTruncated {
		t.Error("adopted status lost log_truncated")
	}
}

// TestEphemeralServerKeepsNewestJobs: a server without a store keeps
// its newest terminal jobs while the bodies they hold total at most
// maxHeldBytes, and forgets older ones: they answer 404 and leave the
// job list. service.retained_bytes is the kept jobs' served bodies.
// Each job holds about 5 MB, so the budget is passed in about a dozen.
func TestEphemeralServerKeepsNewestJobs(t *testing.T) {
	s, hs := startServer(t, Config{})
	type served struct {
		id    string
		bytes int64
	}
	var jobs []served
	for forgotten := 0; forgotten < 2; {
		st := mustSubmit(t, hs.URL, "", fmt.Sprintf(truncSpec, len(jobs)+1))
		waitTerminal(t, hs.URL, "", st.ID)
		s.Wait() // its settle, and what it forgot, is done
		var n int64
		for _, body := range fetchBodies(t, hs.URL, st.ID) {
			n += int64(len(body))
		}
		jobs = append(jobs, served{st.ID, n})

		// The kept jobs: the newest, and those before it while the
		// total stays within the budget.
		kept, total := 1, jobs[len(jobs)-1].bytes
		for i := len(jobs) - 2; i >= 0 && total+jobs[i].bytes <= maxHeldBytes; i-- {
			kept, total = kept+1, total+jobs[i].bytes
		}
		if got := s.mRetained.Value(); got != total || got > maxHeldBytes {
			t.Fatalf("after %d jobs: service.retained_bytes = %d, want %d, the %d kept jobs' bodies (budget %d)",
				len(jobs), got, total, kept, maxHeldBytes)
		}
		var want []string
		for _, j := range jobs[len(jobs)-kept:] {
			want = append(want, j.id)
		}
		var listed []string
		for _, st := range s.list(Tenant{}) {
			listed = append(listed, st.ID)
		}
		if !slices.Equal(listed, want) {
			t.Fatalf("after %d jobs: listed %v, want %v", len(jobs), listed, want)
		}
		for _, j := range jobs[:len(jobs)-kept] {
			for _, route := range append([]string{""}, bodyRoutes...) {
				if resp, _ := request(t, "GET", hs.URL+"/v1/jobs/"+j.id+route, "", nil); resp.StatusCode != http.StatusNotFound {
					t.Fatalf("forgotten job %s: GET %s answers %d, want 404", j.id, route, resp.StatusCode)
				}
			}
		}
		forgotten = len(jobs) - kept
	}
	t.Logf("%d jobs of about %d bytes: %d forgotten", len(jobs), jobs[0].bytes, len(jobs)-len(s.list(Tenant{})))
}
