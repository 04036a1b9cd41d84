package service

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"compaction/internal/obs"
)

// maskPromValues replaces every sample's value with 0, keeping the
// # HELP and # TYPE lines, sample names and labels as they are.
func maskPromValues(expo []byte) []byte {
	var b bytes.Buffer
	for _, line := range bytes.SplitAfter(expo, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if line[0] != '#' {
			if i := bytes.LastIndexByte(line, ' '); i >= 0 {
				line = append(line[:i+1:i+1], "0\n"...)
			}
		}
		b.Write(line)
	}
	return b.Bytes()
}

// TestPromFamiliesGolden pins the families compactd's /metrics/prom
// exports after one job has run and settled — names, types, HELP
// texts, sample names and labels, with values masked to 0 — against
// testdata/metrics.prom.golden. A renamed, retyped, redescribed, added
// or dropped family changes what scrapes and dashboards see, so it
// shows here as a golden diff. The scrape must parse and give every
// family a # HELP text.
func TestPromFamiliesGolden(t *testing.T) {
	s, hs := startServer(t, Config{})
	st := mustSubmit(t, hs.URL, "", quickSpec)
	waitTerminal(t, hs.URL, "", st.ID)
	s.Wait() // the settle, retained-bytes gauge included, has returned
	resp, body := request(t, "GET", hs.URL+"/metrics/prom", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/prom: %d", resp.StatusCode)
	}
	scraped, err := obs.ParsePrometheus(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, f := range scraped {
		if f.Help == "" {
			t.Errorf("family %s has no # HELP text", f.Name)
		}
	}
	checkGolden(t, "metrics.prom.golden", maskPromValues(body))
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics.prom.golden"))
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(golden)
	if err != nil {
		t.Fatalf("golden does not parse: %v", err)
	}
	for _, f := range fams {
		if f.Name == "service_retained_bytes" {
			return
		}
	}
	t.Fatal("service_retained_bytes missing from the golden")
}
