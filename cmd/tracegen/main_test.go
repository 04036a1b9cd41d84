package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRecordInfoReplayCycle(t *testing.T) {
	dir := t.TempDir()
	for _, enc := range []string{"binary", "json"} {
		enc := enc
		t.Run(enc, func(t *testing.T) {
			path := filepath.Join(dir, "t-"+enc)
			if err := record(path, enc, "first-fit", 1<<12, 1<<5, -1, 3, 30); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatal(err)
			}
			if err := showInfo(path); err != nil {
				t.Fatal(err)
			}
			if err := doReplay(path, "best-fit", 0, 0, -1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplayShardedManager: a recorded trace replays against every
// registered manager, the sharded wrappers included.
func TestReplayShardedManager(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.bin")
	if err := record(path, "binary", "first-fit", 1<<12, 1<<5, -1, 3, 30); err != nil {
		t.Fatal(err)
	}
	if err := doReplay(path, "sharded-first-fit", 0, 0, -1); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage")
	if err := os.WriteFile(path, []byte("neither binary nor json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTrace(path); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := readTrace(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRecordUnknownManager(t *testing.T) {
	if err := record(filepath.Join(t.TempDir(), "x"), "binary", "nope", 1<<12, 1<<5, -1, 1, 5); err == nil {
		t.Fatal("unknown manager accepted")
	}
}
