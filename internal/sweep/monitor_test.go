package sweep

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"compaction/internal/faultinject"
	"compaction/internal/obs"
	"compaction/internal/sim"
)

// TestMonitorConsistentAfterCancelSkip is the regression test for the
// job-status contract: once a sweep has ended — including a canceled
// one that left FailCanceled and FailSkipped holes — the monitor's
// gauges must add up (done + skipped = total) and the ETA must be
// zero, because nothing is pending. Before the fix, skipped cells
// were extrapolated as remaining work and a canceled sweep's ETA
// froze at a positive value forever, which compactd would then serve
// as live job status.
func TestMonitorConsistentAfterCancelSkip(t *testing.T) {
	cells := faultCells(6)
	hung := 2
	inner := cells[hung].Program
	releaseCh := make(chan func(), 1)
	cells[hung].Program = func() sim.Program {
		p, rel := faultinject.Hang(inner(), 1)
		releaseCh <- rel
		return p
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mon := NewMonitor(nil)
	done := make(chan []Outcome, 1)
	go func() {
		outs, _ := RunOpts(ctx, cells, Options{Parallelism: 1, Monitor: mon})
		done <- outs
	}()
	// Wait for the sweep to reach the hung cell, then cancel while it
	// is mid-flight: the hung cell becomes FailCanceled, the rest of
	// the grid FailSkipped.
	var release func()
	select {
	case release = <-releaseCh:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep never reached the hung cell")
	}
	cancel()
	release()
	outs := <-done

	var failed, skipped int
	for _, o := range outs {
		if ce, ok := o.Err.(*CellError); ok {
			switch ce.Kind {
			case FailSkipped:
				skipped++
			default:
				failed++
			}
		}
	}
	if failed == 0 || skipped == 0 {
		t.Fatalf("want both canceled and skipped holes, got failed=%d skipped=%d", failed, skipped)
	}

	p := mon.Snapshot()
	if p.Done+p.Skipped != p.Total {
		t.Errorf("gauges inconsistent after cancel: done %d + skipped %d != total %d",
			p.Done, p.Skipped, p.Total)
	}
	if p.ETA != 0 {
		t.Errorf("ETA = %v after the sweep ended; nothing is pending, want 0", p.ETA)
	}
	if p.Failed != int64(failed) {
		t.Errorf("failed gauge %d, want %d", p.Failed, failed)
	}
}

// cellStamper forwards engine events into a shared recorder with the
// cell index stamped, mimicking compactd's job-stream broadcaster. It
// must be safe for concurrent use (EngineTracer's documented burden).
type cellStamper struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *cellStamper) tracer(cell int) obs.Tracer {
	return tracerFunc(func(ev obs.Event) {
		ev.Cell = cell
		c.mu.Lock()
		c.events = append(c.events, ev)
		c.mu.Unlock()
	})
}

type tracerFunc func(obs.Event)

func (f tracerFunc) Emit(ev obs.Event) { f(ev) }

// TestEngineTracerPerCell pins the EngineTracer contract: every cell's
// engine emits its rounds into the tracer the option returned for it,
// and an untraced cell sharing a worker's reused engine with a traced
// one does not inherit the tracer (the historical hazard of the
// engine's Tracer field surviving Reset).
func TestEngineTracerPerCell(t *testing.T) {
	cells := faultCells(3)
	traced := 1
	st := &cellStamper{}
	outs, err := RunOpts(context.Background(), cells, Options{
		Parallelism: 1, // all cells share one worker (and one engine)
		EngineTracer: func(cell int) obs.Tracer {
			if cell == traced {
				return st.tracer(cell)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("cell %d failed: %v", i, o.Err)
		}
	}
	rounds := 0
	for _, ev := range st.events {
		if ev.Cell != traced {
			t.Fatalf("event leaked from cell %d into cell %d's tracer", ev.Cell, traced)
		}
		if ev.Kind == obs.EvRound {
			rounds++
		}
	}
	if want := outs[traced].Result.Rounds; rounds != want {
		t.Errorf("traced cell emitted %d round events, want %d (a mismatch means the "+
			"tracer leaked onto another cell run by the same reused engine)", rounds, want)
	}
}

// TestMonitorDistributedGauges drives the recording surface through a
// scripted coordinator-shaped sequence and
// checks every gauge — on the snapshot, on the registry (the compactd
// /metrics path), and on the rendered progress line.
func TestMonitorDistributedGauges(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMonitor(reg)
	m.Begin(4, 0)

	// Two workers join; one claims and commits a cell.
	m.WorkersAlive(2)
	m.CellDone(-1, false)
	m.Checkpointed()
	// A worker dies mid-lease: the lease expires and is reassigned,
	// the replacement commits, and the zombie's late commit is fenced.
	m.WorkersAlive(1)
	m.LeaseReassigned()
	m.CellDone(-1, false)
	m.Checkpointed()
	m.CommitFenced()
	// A duplicate delivery is fenced too.
	m.CommitFenced()
	// A cell fails once, is retried, then settles as a hole.
	m.Retried()
	m.CellDone(-1, true)
	// One cell is adopted from a replayed ledger.
	m.CellRestored()

	p := m.Snapshot()
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"done", p.Done, 4},
		{"failed", p.Failed, 1},
		{"restored", p.Restored, 1},
		{"retries", p.Retries, 1},
		{"checkpoints", p.Checkpoints, 2},
		{"workers alive", p.WorkersAlive, 1},
		{"leases reassigned", p.LeasesReassigned, 1},
		{"commits fenced", p.CommitsFenced, 2},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}

	// The same values must be live in the registry, where obs.Serve
	// and compactd's job status read them.
	for name, want := range map[string]int64{
		"sweep.workers_alive":     1,
		"sweep.leases_reassigned": 1,
		"sweep.commits_fenced":    2,
	} {
		if got := reg.Gauge(name, "").Value(); got != want {
			t.Errorf("registry %s = %d, want %d", name, got, want)
		}
	}

	line := p.Line()
	for _, want := range []string{"1 workers alive", "1 leases reassigned", "2 commits fenced"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}

	// Begin must rearm everything: a second run starts from zero.
	m.Begin(2, 0)
	p = m.Snapshot()
	if p.WorkersAlive != 0 || p.LeasesReassigned != 0 || p.CommitsFenced != 0 || p.Done != 0 {
		t.Errorf("Begin did not reset distributed gauges: %+v", p)
	}
	if line := p.Line(); strings.Contains(line, "alive") || strings.Contains(line, "fenced") {
		t.Errorf("reset progress line still shows distributed counters: %q", line)
	}

	// And the nil monitor accepts the whole surface silently.
	var nilMon *Monitor
	nilMon.Begin(1, 0)
	nilMon.CellDone(-1, false)
	nilMon.CellRestored()
	nilMon.CellSkipped()
	nilMon.Retried()
	nilMon.Checkpointed()
	nilMon.WorkersAlive(3)
	nilMon.LeaseReassigned()
	nilMon.CommitFenced()
}
