package sweep

import (
	"context"
	"strings"
	"testing"

	"compaction/internal/obs"
	"compaction/internal/sim"
	"compaction/internal/workload"

	_ "compaction/internal/mm/fits"
)

func monitorCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		seed := int64(i + 1)
		cells[i] = Cell{
			Label:   "mon",
			Config:  sim.Config{M: 1 << 10, N: 1 << 4, C: 16},
			Manager: "first-fit",
			Program: func() sim.Program {
				return workload.NewRandom(workload.Config{Seed: seed, Rounds: 10})
			},
		}
	}
	return cells
}

func TestRunWithMonitor(t *testing.T) {
	reg := obs.NewRegistry()
	mon := NewMonitor(reg)
	outs, err := RunOpts(context.Background(), monitorCells(9), Options{Parallelism: 3, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Cell.Manager, o.Err)
		}
	}
	p := mon.Snapshot()
	if p.Done != 9 || p.Total != 9 || p.Failed != 0 {
		t.Fatalf("progress = %+v", p)
	}
	var perWorker int64
	for _, w := range p.PerWorker {
		perWorker += w
	}
	if perWorker != 9 {
		t.Fatalf("per-worker counts sum to %d, want 9 (%v)", perWorker, p.PerWorker)
	}
	// The gauges are live in the registry for -metrics-addr serving.
	if reg.Gauge("sweep.cells_done").Value() != 9 {
		t.Fatal("registry gauge not updated")
	}
	line := p.Line()
	if !strings.Contains(line, "9/9 cells (100.0%)") {
		t.Fatalf("ticker line = %q", line)
	}
}

func TestMonitorCountsFailures(t *testing.T) {
	cells := monitorCells(3)
	cells[1].Program = nil // runCell reports this as an error
	mon := NewMonitor(nil)
	if _, err := RunOpts(context.Background(), cells, Options{Parallelism: 2, Monitor: mon}); err != nil {
		t.Fatal(err)
	}
	p := mon.Snapshot()
	if p.Failed != 1 || p.Done != 3 {
		t.Fatalf("progress = %+v", p)
	}
	if !strings.Contains(p.Line(), "1 failed") {
		t.Fatalf("ticker line = %q", p.Line())
	}
}

func TestRunWithNilMonitor(t *testing.T) {
	outs, err := RunOpts(context.Background(), monitorCells(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
}
