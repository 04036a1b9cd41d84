package service

import (
	"bytes"
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
		status := filepath.Join(s.store.jobDir(st.ID), statusFile)
		var statErr error
		terminal := false
		// Each write is a batch of whole lines from memory or a chunk
		// of the stream's file once it has moved there.
		follow := writerFunc(func(p []byte) (int, error) {
			if !terminal && bytes.Contains(p, []byte(`"ev":"state"`)) && j.Status().State.Terminal() {
				terminal = true
				_, statErr = os.Stat(status)
			}
			return len(p), nil
		})
		if err := j.log.serve(context.Background(), follow, func() {}, 0); err != nil {
			t.Fatal(err)
		}
		if !terminal {
			t.Fatalf("run %d: stream ended without a terminal state line", run)
		}
		if errors.Is(statErr, fs.ErrNotExist) {
			t.Fatalf("run %d: job %s is terminal to its clients before %s is written", run, st.ID, status)
		} else if statErr != nil {
			t.Fatal(statErr)
		}
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
