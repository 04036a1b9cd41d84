package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compaction/internal/check"
)

// TestRecordInfoReplayCycle: a recorded trace can be inspected, and it
// replays, refereed and under its own M, n and c, against another
// manager: the path compactsim -replay takes.
func TestRecordInfoReplayCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	if err := record(path, "first-fit", 1<<12, 1<<5, 16, 3, 30); err != nil {
		t.Fatal(err)
	}
	if err := showInfo(path); err != nil {
		t.Fatal(err)
	}
	tr, err := check.ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.M != 1<<12 || tr.N != 1<<5 || tr.C != 16 || len(tr.Rounds) != 30 {
		t.Fatalf("recorded header M=%d n=%d c=%d rounds=%d", tr.M, tr.N, tr.C, len(tr.Rounds))
	}
	rep, err := check.RunTrace(tr, "best-fit")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("replay against best-fit: %s", rep)
	}
}

// TestReadTraceRejectsGarbage: anything but a JSON trace, such as the
// binary encoding older builds wrote, fails as a JSON decoding error,
// and so does a missing file.
func TestReadTraceRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.bin")
	if err := os.WriteFile(path, []byte("pct1\x05first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := showInfo(path); err == nil || !strings.Contains(err.Error(), "trace: decoding JSON") {
		t.Fatalf("binary trace: got %v, want a JSON decoding error", err)
	}
	if err := showInfo(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRecordUnknownManager(t *testing.T) {
	if err := record(filepath.Join(t.TempDir(), "x"), "nope", 1<<12, 1<<5, -1, 1, 5); err == nil {
		t.Fatal("unknown manager accepted")
	}
}
