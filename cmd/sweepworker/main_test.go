package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"compaction/internal/dist"
	"compaction/internal/sweep"
)

// TestRunSettlesGrid drives the worker frontend over the stdio
// transport against an in-process coordinator: the grid must settle
// and merge to the same CSV bytes as a single-process sweep.
func TestRunSettlesGrid(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec := dist.GridSpec{
		Program: "random", Seed: 7, Rounds: 30, M: 1 << 12, N: 1 << 5,
		Cs: []int64{8, 16}, Managers: []string{"first-fit"},
	}
	cells, tasks, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dist.NewCoordinator(tasks, nil, dist.Options{LeaseTTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// Requests flow worker → coordinator over one pipe, responses back
	// over the other.
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- dist.ServeLines(coord, reqR, respW)
		respW.Close()
	}()
	var stderr bytes.Buffer
	code := run(ctx, []string{"-coordinator", "-", "-id", "w0"}, respR, reqW, &stderr)
	reqW.Close()
	respR.Close()
	if err := <-served; err != nil {
		t.Errorf("ServeLines: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr.String())
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("grid not settled: %v", err)
	}
	outs := coord.Outcomes()
	if holes := sweep.Holes(outs); len(holes) > 0 {
		t.Fatalf("%d holes after a clean run", len(holes))
	}

	want, err := sweep.RunOpts(ctx, cells, sweep.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV, gotCSV bytes.Buffer
	if err := sweep.WriteCSV(&wantCSV, want); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteCSV(&gotCSV, outs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantCSV.Bytes(), gotCSV.Bytes()) {
		t.Fatalf("worker CSV differs from single-process CSV:\n--- single\n%s--- worker\n%s", wantCSV.Bytes(), gotCSV.Bytes())
	}
}

// TestRunUsageErrors: bad command lines exit 2 before any transport
// is touched.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil, // no -coordinator
		{"-coordinator", "-", "-inject", "bogus"},
		{"-coordinator", "-", "-no-such-flag"},
	} {
		var stderr bytes.Buffer
		if code := run(context.Background(), args, strings.NewReader(""), io.Discard, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2; stderr:\n%s", args, code, stderr.String())
		}
	}
}
