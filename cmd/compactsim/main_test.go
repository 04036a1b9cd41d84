package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"compaction/internal/catalog"
	"compaction/internal/check"
	"compaction/internal/core"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/workload"
)

func TestNewProgramKinds(t *testing.T) {
	for _, adv := range []string{"pf", "robson", "pw", "random", "rampdown", "generational", "sawtooth", "profile:server"} {
		mk, _, err := catalog.New(adv, catalog.Params{Seed: 1, Rounds: 20})
		if err != nil {
			t.Errorf("%s: %v", adv, err)
			continue
		}
		if p := mk(); p == nil || p.Name() == "" {
			t.Errorf("%s: empty program", adv)
		}
	}
	if _, _, err := catalog.New("bogus", catalog.Params{Seed: 1, Rounds: 20}); err == nil {
		t.Error("bogus adversary accepted")
	}
	if _, _, err := catalog.New("profile:no-such-profile", catalog.Params{Seed: 1, Rounds: 20}); err == nil {
		t.Error("bogus profile accepted")
	}
}

func TestLoadProfileFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	data := `{"name":"filetest","phases":[{"rounds":3,"live":0.5,"sizes":[{"words":2,"weight":1}]}]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	mk, _, err := catalog.New("profile:"+path, catalog.Params{Seed: 1, Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := mk().Name(); got != "profile:filetest" && got != "filetest" {
		t.Fatalf("loaded program named %q", got)
	}
	if _, _, err := catalog.New("profile:"+filepath.Join(dir, "missing.json"), catalog.Params{Seed: 1, Rounds: 20}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// mustParse parses args the way main does, failing the test on a
// usage error.
func mustParse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("compactsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, _, err := parse(fs, args)
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return o
}

func TestRunSingleManagerEndToEnd(t *testing.T) {
	if err := run(context.Background(), mustParse(t, "-adversary", "robson", "-manager", "first-fit", "-M", "1Ki", "-n", "16", "-c", "-1", "-rounds", "10")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), mustParse(t, "-adversary", "pf", "-manager", "no-such", "-M", "4Ki", "-n", "64", "-c", "8", "-rounds", "10")); err == nil {
		t.Fatal("unknown manager accepted")
	}
	if err := run(context.Background(), mustParse(t, "-adversary", "pf", "-manager", "first-fit", "-M", "64", "-n", "1Ki", "-c", "8", "-rounds", "10")); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func demoArtifact(t *testing.T) string {
	t.Helper()
	cfg := sim.Config{M: 1 << 12, N: 1 << 5, C: 16}
	tr, err := check.RecordTrace(cfg,
		workload.NewRandom(workload.Config{Seed: 3, Rounds: 30, Dist: workload.Geometric}),
		"first-fit")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "demo.json")
	if err := check.WriteArtifact(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCheckMode(t *testing.T) {
	err := run(context.Background(), mustParse(t,
		"-adversary", "random", "-manager", "first-fit",
		"-M", "4Ki", "-n", "32", "-c", "16", "-rounds", "30", "-check"))
	if err != nil {
		t.Fatalf("refereed run failed: %v", err)
	}
}

func TestRunReplayMode(t *testing.T) {
	path := demoArtifact(t)
	// The trace's own M/n/c take over; the bogus flag values must be
	// ignored rather than rejected.
	err := run(context.Background(), mustParse(t,
		"-adversary", "ignored", "-manager", "best-fit",
		"-M", "1", "-n", "999", "-c", "-7", "-replay", path))
	if err != nil {
		t.Fatalf("replay run failed: %v", err)
	}
}

// productManagers is the registry as the product builds it, read
// before any test registers a manager of its own: robust_test.go adds
// flaky-first-fit, which a later "-manager all" would pick up.
var productManagers = mm.Names()

func TestRunReplayWithCheck(t *testing.T) {
	path := demoArtifact(t)
	for _, name := range productManagers {
		if err := run(context.Background(), mustParse(t, "-manager", name, "-replay", path, "-check")); err != nil {
			t.Errorf("refereed replay against %s failed: %v", name, err)
		}
	}
}

func TestRunReplayMissingArtifact(t *testing.T) {
	err := run(context.Background(), mustParse(t, "-manager", "first-fit", "-replay", filepath.Join(t.TempDir(), "nope.json")))
	if err == nil {
		t.Fatal("missing artifact not reported")
	}
}

func TestRunSweepEndToEnd(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "out.csv")
	if err := runGrid(context.Background(), mustParse(t, "-adversary", "robson", "-manager", "first-fit", "-M", "1Ki", "-n", "16", "-sweep", "0", "-csv", csv, "-rounds", "10")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(csv); err != nil {
		t.Fatalf("csv not written: %v", err)
	}
	if err := runGrid(context.Background(), mustParse(t, "-adversary", "pf", "-manager", "first-fit", "-M", "4Ki", "-n", "64", "-sweep", "8,bogus", "-rounds", "10")); err == nil {
		t.Fatal("bad sweep list accepted")
	}
}

func TestRunSweepWithMonitor(t *testing.T) {
	// -progress over a sweep goes through the sweep.Monitor path.
	if err := runGrid(context.Background(), mustParse(t, "-adversary", "robson", "-manager", "first-fit", "-M", "1Ki", "-n", "16", "-sweep", "0,-1", "-rounds", "10", "-progress")); err != nil {
		t.Fatal(err)
	}
}

// modeCase is one command line parsed by defineFlags and checked
// against the mode it selects.
type modeCase struct {
	name    string
	args    []string
	want    mode
	wantErr string // substring of the usage error; "" = accepted
}

// checkModes parses each case's command line: an accepted one must run
// in its mode, a rejected one must fail with a usage error naming the
// offending flag.
func checkModes(t *testing.T, cases []modeCase) {
	t.Helper()
	for _, c := range cases {
		fs := flag.NewFlagSet("compactsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, m, err := parse(fs, c.args)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %q rejected: %v", c.name, c.args, err)
		case c.wantErr == "" && m != c.want:
			t.Errorf("%s: %q runs in mode %s, want %s", c.name, c.args, m, c.want)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: %q: error %v, want one naming %q", c.name, c.args, err, c.wantErr)
		}
	}
}

// TestObsFlagValidation: -trace-out and -series-out follow one
// manager through one run, and -progress reports a sweep.
func TestObsFlagValidation(t *testing.T) {
	checkModes(t, []modeCase{
		{"clean traced run", []string{"-trace-out", "t.json", "-manager", "first-fit"}, modeSingle, ""},
		{"trace with sweep", []string{"-trace-out", "t.json", "-manager", "first-fit", "-sweep", "8"}, 0, "-trace-out"},
		{"series with seeds", []string{"-series-out", "s.csv", "-manager", "first-fit", "-seeds", "5"}, 0, "-series-out"},
		{"trace with all managers", []string{"-trace-out", "t.json"}, 0, "single -manager"},
		{"progress with seeds", []string{"-progress", "-manager", "first-fit", "-seeds", "3"}, 0, "-progress"},
		{"progress with sweep", []string{"-progress", "-sweep", "8"}, modeSweep, ""},
		// The -trace-out path suffix picks the format.
		{"trace-format is not a flag", []string{"-trace-out", "t.json", "-trace-format", "ndjson"}, 0, "-trace-format"},
	})
}

// TestModeFlags pins the one mode table: how a command line selects
// its mode, the flags each mode would otherwise have ignored, and that
// every table entry is a real flag.
func TestModeFlags(t *testing.T) {
	checkModes(t, []modeCase{
		{"defaults", nil, modeSingle, ""},
		{"replay with seeds", []string{"-replay", "t.json", "-seeds", "3"}, 0, "-replay"},
		{"check with sweep", []string{"-check", "-sweep", "8"}, 0, "-check"},
		{"seeds", []string{"-seeds", "3", "-c", "8"}, modeSeeds, ""},
		{"one seed is a single run", []string{"-seeds", "1", "-sweep", "8"}, modeSweep, ""},
		{"unknown flag", []string{"-bogus"}, 0, "bogus"},

		// Each of these used to exit 0 with the flag silently ignored.
		{"seeds with sweep", []string{"-seeds", "3", "-sweep", "8,16", "-csv", "x.csv"}, 0, "-seeds"},
		{"heapmap with sweep", []string{"-sweep", "8", "-heapmap"}, 0, "-heapmap"},
		{"c with sweep", []string{"-sweep", "8", "-c", "99"}, 0, "-c "},
		{"seed with seeds", []string{"-seeds", "3", "-seed", "9"}, 0, "-seed "},
		{"lease flags without coordinate", []string{"-sweep", "8", "-lease-ttl", "1s"}, 0, "-lease-ttl"},
		{"heatmap-every with check", []string{"-manager", "first-fit", "-heatmap-out", "h.json", "-heatmap-every", "2", "-check"}, 0, "-heatmap-every"},
		{"heatmap-every without heatmap-out", []string{"-heatmap-every", "2"}, 0, "-heatmap-every"},
		// Both grid modes fail cells under one policy.
		{"coordinate with retries", []string{"-sweep", "8", "-coordinate", "127.0.0.1:0", "-retries", "2"}, modeCoordinate, ""},
		{"coordinate with cell-timeout", []string{"-sweep", "8", "-coordinate", "127.0.0.1:0", "-cell-timeout", "1s"}, modeCoordinate, ""},
	})

	// Every table entry names a real flag: a typo would silently let
	// the flag through in every mode.
	fs := flag.NewFlagSet("compactsim", flag.ContinueOnError)
	defineFlags(fs)
	for name := range modeFlags {
		if fs.Lookup(name) == nil {
			t.Errorf("modeFlags lists -%s, which is not a flag", name)
		}
	}
}

func TestTraceOutUnwritablePathFails(t *testing.T) {
	robson := []string{"-adversary", "robson", "-manager", "first-fit", "-M", "1Ki", "-n", "16", "-c", "-1", "-rounds", "10"}
	err := run(context.Background(), mustParse(t, append(robson,
		"-trace-out", filepath.Join(t.TempDir(), "no", "such", "dir", "t.json"))...))
	if err == nil {
		t.Fatal("unwritable -trace-out path accepted")
	}
	err = run(context.Background(), mustParse(t, append(robson,
		"-series-out", filepath.Join(t.TempDir(), "no", "such", "dir", "s.csv"))...))
	if err == nil {
		t.Fatal("unwritable -series-out path accepted")
	}
}

func TestTraceOutSchemas(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "run.json")
	ndjson := filepath.Join(dir, "run.ndjson")
	series := filepath.Join(dir, "run.csv")
	pf := []string{"-adversary", "pf", "-manager", "first-fit", "-M", "4Ki", "-n", "64", "-c", "8", "-rounds", "10"}
	err := run(context.Background(), mustParse(t, append(pf,
		"-trace-out", chrome, "-series-out", series, "-progress")...))
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), mustParse(t, append(pf, "-trace-out", ndjson)...)); err != nil {
		t.Fatal(err)
	}

	// The .json path must have auto-selected the Chrome trace_event
	// container: one JSON object with a traceEvents array.
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}

	// The .ndjson path must hold one JSON object per line.
	nd, err := os.ReadFile(ndjson)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(nd), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("ndjson trace is empty")
	}
	rounds := 0
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("ndjson line %d invalid: %v", i+1, err)
		}
		if ev["ev"] == "round" {
			rounds++
		}
	}
	if rounds == 0 {
		t.Fatal("ndjson trace has no round events")
	}

	// The series CSV ends on the run's final HS: re-run the identical
	// configuration and compare bit-exactly.
	mgr, err := mm.New("first-fit")
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(sim.Config{M: 1 << 12, N: 1 << 6, C: 8, Pow2Only: true}, core.NewPF(core.Options{}), mgr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(series)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimRight(string(csv), "\n"), "\n")
	if len(rows) < 2 {
		t.Fatalf("series CSV too short:\n%s", csv)
	}
	last := strings.Split(rows[len(rows)-1], ",")
	if len(last) < 3 {
		t.Fatalf("bad series row %q", rows[len(rows)-1])
	}
	hs, err := strconv.ParseInt(last[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hs != res.HighWater {
		t.Fatalf("series final HS %d != run HS %d", hs, res.HighWater)
	}
	// HS is recorded exactly, so the waste factor it implies matches
	// the run's own bit for bit; the CSV waste column itself is
	// rounded to 6 decimals for readability.
	if got := float64(hs) / float64(1<<12); math.Float64bits(got) != math.Float64bits(res.WasteFactor()) {
		t.Fatalf("series-derived waste %v != run waste %v bit-exactly", got, res.WasteFactor())
	}
	waste, err := strconv.ParseFloat(last[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(waste-res.WasteFactor()) > 1e-6 {
		t.Fatalf("series waste column %v disagrees with run waste %v", waste, res.WasteFactor())
	}
}

func TestHeatmapOutArtifact(t *testing.T) {
	dir := t.TempDir()
	heat := filepath.Join(dir, "heat.json")
	opts := mustParse(t, "-adversary", "pf", "-manager", "first-fit", "-M", "4Ki", "-n", "64", "-c", "8", "-rounds", "64",
		"-heatmap-out", heat)
	if err := run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(heat)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		V      int `json:"v"`
		Shards int `json:"shards"`
		Width  int `json:"width"`
		Tiers  []struct {
			Scale   int              `json:"scale"`
			Entries []map[string]any `json:"entries"`
		} `json:"tiers"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("heatmap artifact is not valid JSON: %v", err)
	}
	if doc.V != 1 || doc.Shards != 1 || doc.Width == 0 || len(doc.Tiers) != 3 {
		t.Fatalf("artifact header v=%d shards=%d width=%d tiers=%d", doc.V, doc.Shards, doc.Width, len(doc.Tiers))
	}
	if len(doc.Tiers[0].Entries) == 0 {
		t.Fatal("raw tier has no samples")
	}

	// Determinism: the identical run writes identical bytes.
	heat2 := filepath.Join(dir, "heat2.json")
	opts.heatmapOut = heat2
	if err := run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(heat2)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatal("two identical runs wrote different heatmap artifacts")
	}

	// Sharded runs carry one strip per shard.
	heat4 := filepath.Join(dir, "heat4.json")
	if err := run(context.Background(), mustParse(t,
		"-adversary", "random", "-manager", "first-fit", "-M", "4Ki", "-n", "64", "-c", "8", "-rounds", "64",
		"-shards", "4", "-heatmap-out", heat4)); err != nil {
		t.Fatal(err)
	}
	raw4, err := os.ReadFile(heat4)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw4, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Shards != 4 {
		t.Fatalf("sharded artifact has %d shards, want 4", doc.Shards)
	}
}
