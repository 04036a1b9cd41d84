package obs

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// promRegistry builds a deterministic registry covering every metric
// type and the interesting histogram shapes: a zero-heavy histogram
// (bucket 0 populated), a long-tail one, and one with an overflow
// (MaxInt64) observation folded into +Inf.
func promRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("sim.allocs", "Objects placed.").Add(42)
	reg.Counter("sim.rounds", "Engine rounds completed.").Add(7)
	reg.Gauge("sweep.cells_done", "Cells settled.").Set(3)
	reg.Gauge("shard.0.live", "Live words in shard 0.").Set(1024)
	h := reg.Histogram("sim.alloc_words", "Words per allocation.")
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 7, 8, 100, 1 << 20} {
		h.Observe(v)
	}
	o := reg.Histogram("sim.gap_words", "Words per free gap.")
	o.Observe(5)
	o.Observe(math.MaxInt64)
	return reg
}

// TestPrometheusGolden pins the exposition output byte-for-byte, and
// round-trips it through the in-tree parser.
func TestPrometheusGolden(t *testing.T) {
	var b bytes.Buffer
	if err := promRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom.golden", b.Bytes())

	// Byte-determinism over the same state.
	var b2 bytes.Buffer
	if err := promRegistry().WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Fatal("two expositions of identical registries differ")
	}

	fams, err := ParsePrometheus(b.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["sim_allocs"]; f.Type != "counter" || f.Samples[0].Value != 42 {
		t.Fatalf("sim_allocs = %+v", f)
	}
	if f := byName["shard_0_live"]; f.Type != "gauge" || f.Samples[0].Value != 1024 {
		t.Fatalf("shard_0_live = %+v", f)
	}
	f, ok := byName["sim_alloc_words"]
	if !ok || f.Type != "histogram" {
		t.Fatalf("sim_alloc_words family = %+v", f)
	}
	// 10 observations; the le="1" cumulative bucket holds the one zero
	// plus two ones.
	for _, s := range f.Samples {
		if s.Name == "sim_alloc_words_bucket" && s.Labels["le"] == "1" && s.Value != 3 {
			t.Fatalf("le=1 bucket = %v, want 3", s.Value)
		}
		if s.Name == "sim_alloc_words_count" && s.Value != 10 {
			t.Fatalf("count = %v, want 10", s.Value)
		}
	}
	// The MaxInt64 observation lives only in +Inf (bucket 63's edge is
	// folded); the parser must still see a consistent histogram.
	g := byName["sim_gap_words"]
	last := g.Samples[0]
	for _, s := range g.Samples {
		if s.Name == "sim_gap_words_bucket" {
			last = s
		}
	}
	if last.Labels["le"] != "+Inf" || last.Value != 2 {
		t.Fatalf("sim_gap_words +Inf bucket = %+v, want 2", last)
	}
}

// TestPrometheusEndpointScrape serves a registry over the obs handler
// and validates a real scrape of /metrics/prom — content type,
// parseability, and a # HELP text on every family, carried through
// from the registration. CI's obs job runs this against the
// checked-in parser as its exposition-format check.
func TestPrometheusEndpointScrape(t *testing.T) {
	srv := httptest.NewServer(Handler(promRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(body)
	if err != nil {
		t.Fatalf("scraped exposition does not parse: %v\n%s", err, body)
	}
	if len(fams) != 6 {
		t.Fatalf("scraped %d families, want 6", len(fams))
	}
	for _, f := range fams {
		if f.Help == "" {
			t.Errorf("family %s has no # HELP text", f.Name)
		}
	}
	if f := fams[0]; f.Name != "shard_0_live" || f.Help != "Live words in shard 0." {
		t.Errorf("first family %s has help %q, want shard_0_live's registered text", f.Name, f.Help)
	}
}

// TestPromParserRejects exercises the parser's structural checks on
// documents a buggy emitter could produce.
func TestPromParserRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"orphan sample", "foo 1\n", "no # TYPE"},
		{"bad type", "# TYPE foo widget\n", "unknown type"},
		{"non-cumulative", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" +
			"h_sum 9\nh_count 3\n", "not cumulative"},
		{"missing inf", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\n" + "h_sum 1\nh_count 1\n", "missing +Inf"},
		{"count mismatch", "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 2` + "\n" + "h_sum 1\nh_count 3\n", "!= count"},
		{"unordered edges", "# TYPE h histogram\n" +
			`h_bucket{le="3"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n" +
			`h_bucket{le="+Inf"} 1` + "\n" + "h_sum 1\nh_count 1\n", "out of order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePrometheus([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}
