package service

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	_ "compaction/internal/mm/all"
)

var update = flag.Bool("update", false, "rewrite the golden stream files")

// goldenSpec is the stream-schema anchor: a tiny deterministic job —
// P_F against two managers, parallelism 1 so the interleaving is
// total-ordered — whose complete wire streams are committed under
// testdata. Any change to the stream framing, the obs NDJSON schema,
// or the seq/cell splice shows up as a golden diff.
const goldenSpec = `{"program":"pf","manager":"first-fit","m":512,"n":16,"cs":[16,64],"rounds":12,"seed":7,"parallelism":1}`

// runGolden submits goldenSpec and returns the job ID with the job
// already terminal.
func runGolden(t *testing.T, base string) string {
	t.Helper()
	st := mustSubmit(t, base, "", goldenSpec)
	final := waitTerminal(t, base, "", st.ID)
	if final.State != StateDone || final.Failed != 0 {
		t.Fatalf("golden job settled %s (failed=%d, %s)", final.State, final.Failed, final.Error)
	}
	return st.ID
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write the goldens)", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from its golden; run with -update after an intentional schema change.\n-- got --\n%s-- want --\n%s",
			name, got, want)
	}
}

// TestStreamGoldens pins the NDJSON event stream byte for byte, for
// both an ephemeral job (no checkpoint events) and a durable one
// (checkpoint events interleaved after each completed cell).
func TestStreamGoldens(t *testing.T) {
	_, hs := startServer(t, Config{})
	id := runGolden(t, hs.URL)
	checkGolden(t, "stream.ndjson.golden", streamNDJSON(t, hs.URL, "", id, 0))

	_, hsd := startServer(t, Config{Dir: t.TempDir()})
	idd := runGolden(t, hsd.URL)
	durable := streamNDJSON(t, hsd.URL, "", idd, 0)
	if !strings.Contains(string(durable), `"ev":"checkpoint"`) {
		t.Fatal("durable stream carries no checkpoint events")
	}
	checkGolden(t, "stream_durable.ndjson.golden", durable)
}

// TestStreamReplayByteIdentical is the determinism contract of the
// stream log: re-reading a finished job, resuming from any offset with
// ?from=N, and re-running the same spec as a brand-new job must all
// reproduce identical bytes.
func TestStreamReplayByteIdentical(t *testing.T) {
	_, hs := startServer(t, Config{})
	id := runGolden(t, hs.URL)

	first := streamNDJSON(t, hs.URL, "", id, 0)
	again := streamNDJSON(t, hs.URL, "", id, 0)
	if string(first) != string(again) {
		t.Fatal("two reads of the same finished job differ")
	}

	lines := strings.SplitAfter(string(first), "\n")
	if lines[len(lines)-1] == "" { // SplitAfter leaves one empty tail
		lines = lines[:len(lines)-1]
	}
	for _, from := range []int{1, len(lines) / 2, len(lines) - 1} {
		part := streamNDJSON(t, hs.URL, "", id, from)
		want := strings.Join(lines[from:], "")
		if string(part) != want {
			t.Errorf("resume from %d diverged:\n-- got --\n%s-- want --\n%s", from, part, want)
		}
	}

	// A fresh job from the same spec streams the same bytes: nothing
	// job-specific (IDs, clocks) leaks into the wire format.
	id2 := runGolden(t, hs.URL)
	if id2 == id {
		t.Fatal("job IDs must be unique")
	}
	second := streamNDJSON(t, hs.URL, "", id2, 0)
	if string(second) != string(first) {
		t.Errorf("same spec, different stream:\n-- job %s --\n%s-- job %s --\n%s", id, first, id2, second)
	}
}
