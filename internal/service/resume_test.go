package service

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	_ "compaction/internal/mm/all"
	"compaction/internal/resume"
	"compaction/internal/sweep"
)

// interruptSpec is sized for reliable mid-flight interruption: five
// sequential cells of a workload program, each tens of milliseconds,
// so canceling right after the first checkpoint always leaves owed
// cells behind. Stream "off" keeps the log to scheduler + state lines.
const interruptSpec = `{"program":"random","manager":"first-fit","m":1024,"n":16,"cs":[16,32,64,128,256],"rounds":1500,"seed":5,"parallelism":1,"stream":"off"}`

// runInterrupted boots a durable server on dir, submits interruptSpec,
// waits for the first durable checkpoint, and kills the server the
// graceful way (context cancel + drain), leaving an acknowledged,
// unfinished job on disk. It returns the job ID.
func runInterrupted(t *testing.T, dir string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := New(Config{Dir: dir})
	for _, w := range s.Start(ctx) {
		t.Fatalf("fresh dir produced recovery warning: %v", w)
	}
	hs := httptest.NewServer(s.Handler())
	st := mustSubmit(t, hs.URL, "", interruptSpec)

	// Follow the live stream until the sweep journals its first cell:
	// from that moment a restart has something to restore.
	req, err := http.NewRequest("GET", hs.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	saw := false
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"ev":"checkpoint"`) {
			saw = true
			break
		}
	}
	resp.Body.Close()
	if !saw {
		t.Fatal("stream ended without a checkpoint event")
	}

	cancel()
	s.Wait()
	hs.Close()

	if _, err := os.Stat(s.store.journalPath(st.ID)); err != nil {
		t.Fatalf("no journal survived the kill: %v", err)
	}
	if _, err := os.Stat(filepath.Join(s.store.jobDir(st.ID), "status.json")); err == nil {
		t.Fatal("killed server persisted a terminal status; the job would not resume")
	}
	return st.ID
}

// TestKillRestartResumeByteIdentical is the service-level resume
// drill: kill a server mid-sweep, boot a new one on the same data
// directory, and require (a) the job is re-enqueued and finishes, (b)
// at least one cell came from the journal rather than a re-run, and
// (c) the result CSV is byte-identical to an uninterrupted run of the
// same spec.
func TestKillRestartResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	id := runInterrupted(t, dir)

	// Restart on the same directory: boot recovery must re-enqueue.
	s2, hs2 := startServer(t, Config{Dir: dir})
	final := waitTerminal(t, hs2.URL, "", id)
	if final.State != StateDone || final.Failed != 0 {
		t.Fatalf("resumed job settled %s (failed=%d, err=%q), want clean done",
			final.State, final.Failed, final.Error)
	}
	if final.Restored == 0 {
		t.Fatal("restored=0: the resumed run re-ran every cell, the journal was ignored")
	}
	if final.Restored == final.Done {
		t.Fatal("every cell restored: the first run was never actually interrupted")
	}
	resp, resumed := request(t, "GET", hs2.URL+"/v1/jobs/"+id+"/result", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result after resume: %d", resp.StatusCode)
	}
	// Hole-free completion retires the journal.
	if _, err := os.Stat(s2.store.journalPath(id)); !os.IsNotExist(err) {
		t.Errorf("journal still present after hole-free completion (err=%v)", err)
	}

	// The reference: the same spec, uninterrupted, on a fresh server.
	_, hsRef := startServer(t, Config{})
	ref := mustSubmit(t, hsRef.URL, "", interruptSpec)
	waitTerminal(t, hsRef.URL, "", ref.ID)
	resp, clean := request(t, "GET", hsRef.URL+"/v1/jobs/"+ref.ID+"/result", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean result: %d", resp.StatusCode)
	}
	if string(resumed) != string(clean) {
		t.Errorf("resumed result differs from a clean run:\n-- resumed --\n%s-- clean --\n%s", resumed, clean)
	}

	// A third boot adopts the settled job from disk: status and result
	// are served without re-running anything.
	_, hs3 := startServer(t, Config{Dir: dir})
	adopted := getStatus(t, hs3.URL, "", id)
	if adopted.State != StateDone || adopted.Restored != final.Restored || adopted.Done != final.Done {
		t.Errorf("adopted status %+v does not match settled %+v", adopted, final)
	}
	resp, again := request(t, "GET", hs3.URL+"/v1/jobs/"+id+"/result", "", nil)
	if resp.StatusCode != http.StatusOK || string(again) != string(resumed) {
		t.Errorf("adopted result differs from the settled one (%d)", resp.StatusCode)
	}
}

// TestJournalTornTailTolerance truncates a job's checkpoint journal at
// every byte offset and boots the service over each mutilation. The
// contract under any torn tail — mid-header, mid-entry, clean
// boundary: the job must settle, either done (re-running whatever the
// recovered prefix is missing) or failed with a clean error (a
// header too corrupt to trust), and the process must never panic.
func TestJournalTornTailTolerance(t *testing.T) {
	sp, err := ParseSpec([]byte(quickSpec))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sp.Cells()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Build the complete journal the service itself would have written,
	// from a real in-process run of the same grid.
	outs, err := sweep.RunOpts(ctx, cells, sp.options())
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "journal.ckpt")
	jr, err := resume.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]string, len(cells))
	for i, c := range cells {
		fps[i] = resume.Fingerprint(resume.CellKey{
			Index: i, Label: c.Label, Manager: c.Manager, Config: c.Config,
		})
	}
	if err := jr.Bind(resume.GridFingerprint(fps), len(cells), sp.JournalParams()); err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("reference cell %d failed: %v", i, o.Err)
		}
		if _, err := jr.Record(i, fps[i], o.Result); err != nil {
			t.Fatal(err)
		}
	}
	full, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}

	stride := 1
	if testing.Short() {
		stride = 13
	}
	rec := jobRecord{ID: "j000001", Tenant: "public", Spec: sp}
	for cut := 0; cut <= len(full); cut += stride {
		dir := t.TempDir()
		jd := filepath.Join(dir, "jobs", rec.ID)
		if err := os.MkdirAll(jd, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeJSONAtomic(filepath.Join(jd, "job.json"), rec); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jd, "journal.ckpt"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		sctx, cancel := context.WithCancel(ctx)
		s := New(Config{Dir: dir})
		s.Start(sctx)
		s.Wait() // the recovered job settles; a panic fails the test hard
		cancel()

		s.mu.Lock()
		j := s.jobs[rec.ID]
		s.mu.Unlock()
		if j == nil {
			t.Fatalf("cut=%d: recovery dropped the job", cut)
		}
		st := j.Status()
		switch st.State {
		case StateDone:
			if st.Failed != 0 {
				t.Errorf("cut=%d: done with %d holes: %s", cut, st.Failed, st.Error)
			}
			if _, ok := j.result(); !ok {
				t.Errorf("cut=%d: done without a result", cut)
			}
		case StateFailed:
			if st.Error == "" {
				t.Errorf("cut=%d: failed without an error message", cut)
			}
		default:
			t.Errorf("cut=%d: job settled %q, want done or failed", cut, st.State)
		}
		if cut == len(full) && st.Restored != int64(len(cells)) {
			t.Errorf("intact journal restored %d of %d cells", st.Restored, len(cells))
		}
	}
}
