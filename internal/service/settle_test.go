package service

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestSettlePersistsBeforePublishing: a job turns terminal for its
// clients (its status, the last line of its stream) only once its
// status.json is on disk. A server restarted in between would find
// no terminal record for a job its clients saw finish, and run it
// again instead of adopting it. Each run follows the job's stream in
// process and, the moment the terminal state line appears, looks for
// status.json: it must be there already.
func TestSettlePersistsBeforePublishing(t *testing.T) {
	const spec = `{"program":"random","manager":"first-fit","m":256,"n":16,"cs":[8],"rounds":20,"seed":1,"stream":"off"}`
	for run := 0; run < 5; run++ {
		s, hs := startServer(t, Config{Dir: t.TempDir()})
		st := mustSubmit(t, hs.URL, "", spec)
		j, ok := s.job(Tenant{}, st.ID)
		if !ok {
			t.Fatalf("job %s not found", st.ID)
		}
		status := filepath.Join(s.store.jobDir(st.ID), "status.json")
		terminal := false
		for from := 0; !terminal; {
			lines, more, err := j.log.next(context.Background(), from)
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				t.Fatalf("run %d: stream closed without a terminal state line", run)
			}
			from += len(lines)
			for _, ln := range lines {
				if ln.event == "state" && j.Status().State.Terminal() {
					terminal = true
				}
			}
		}
		if _, err := os.Stat(status); errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("run %d: job %s is terminal to its clients before %s is written", run, st.ID, status)
		} else if err != nil {
			t.Fatal(err)
		}
	}
}
