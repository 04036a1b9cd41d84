package check

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"compaction/internal/bounds"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/trace"
)

// The twins implement one placement policy on independent data
// structures: first-fit places through heap.FreeSpace's B+tree of
// free intervals, bitmap-first-fit through its own granule bitmap.
// Both are deterministic and non-moving, so on one trace they must
// produce identical results.
const twinA, twinB = "first-fit", "bitmap-first-fit"

// DiffCell is one manager's replay of the trace.
type DiffCell struct {
	Manager string
	Report  Report
}

// DiffReport is the outcome of one differential-oracle pass.
type DiffReport struct {
	Trace string
	Cells []DiffCell
	// Mismatches are cross-cell disagreements: diverging twins, or
	// heap sizes beyond the documented envelope.
	Mismatches []string
}

// Ok reports a fully clean pass: every cell ran without violations and
// no cross-cell mismatch was found. Cell errors count as failures —
// the oracle replays traces every registered manager must serve.
func (d DiffReport) Ok() bool {
	if len(d.Mismatches) > 0 {
		return false
	}
	for _, c := range d.Cells {
		if !c.Report.Ok() {
			return false
		}
	}
	return true
}

func (d DiffReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "differential %q: %d cells", d.Trace, len(d.Cells))
	for _, c := range d.Cells {
		if !c.Report.Ok() {
			fmt.Fprintf(&b, "\n  %s: %s", c.Manager, c.Report)
		}
	}
	for _, m := range d.Mismatches {
		fmt.Fprintf(&b, "\n  mismatch: %s", m)
	}
	return b.String()
}

// Differential replays tr through each named manager and
// cross-checks the outcomes:
//
//   - every cell is refereed (invariant violations are collected);
//   - twins (first-fit and bitmap-first-fit) must produce identical
//     results apart from the manager name: same placements imply the
//     same HS, counters and errors;
//   - successful runs must satisfy the documented envelope
//     MaxLive ≤ HS ≤ hsEnvelope·M (Robson's worst case with slack for
//     rounding managers, or the (c+1)·M compaction bound if larger).
//
// parallelism <= 0 selects GOMAXPROCS.
func Differential(tr *trace.Trace, managers []string, parallelism int) DiffReport {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	rep := DiffReport{Trace: tr.Program}
	for _, m := range managers {
		rep.Cells = append(rep.Cells, DiffCell{Manager: m})
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallelism)
	for i := range rep.Cells {
		wg.Add(1)
		go func(c *DiffCell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r, err := RunTrace(tr, c.Manager)
			if err != nil {
				r.Err = err
			}
			c.Report = r
		}(&rep.Cells[i])
	}
	wg.Wait()
	rep.Mismatches = crossCheck(tr, rep.Cells)
	return rep
}

// hsEnvelope is the documented per-manager waste bound the oracle
// flags divergence against: twice Robson's arbitrary-size worst case
// (the factor 2 absorbs the rounding adapter's doubling), or the
// (c+1)·M Bendersky–Petrank compaction bound when that is larger.
func hsEnvelope(tr *trace.Trace) float64 {
	env := 2 * bounds.RobsonUpperArbitrary(tr.M, tr.N)
	if tr.C > 0 {
		if bp := bounds.BPUpper(tr.C); bp > env {
			env = bp
		}
	}
	return env
}

func crossCheck(tr *trace.Trace, cells []DiffCell) []string {
	var mismatches []string
	byManager := make(map[string]Report, len(cells))
	for _, c := range cells {
		byManager[c.Manager] = c.Report
	}
	a, okA := byManager[twinA]
	b, okB := byManager[twinB]
	if okA && okB {
		// The results differ in the Manager name; everything else must
		// be identical.
		ra, rb := a.Result, b.Result
		ra.Manager, rb.Manager = "", ""
		switch {
		case (a.Err == nil) != (b.Err == nil):
			mismatches = append(mismatches, fmt.Sprintf(
				"twins diverge on legality: %s err=%v, %s err=%v", twinA, a.Err, twinB, b.Err))
		case ra != rb:
			mismatches = append(mismatches, fmt.Sprintf(
				"twins diverge: %s %+v, %s %+v", twinA, ra, twinB, rb))
		}
	}
	env := hsEnvelope(tr)
	for _, c := range cells {
		if c.Report.Err != nil {
			continue
		}
		res := c.Report.Result
		if res.HighWater < res.MaxLive {
			mismatches = append(mismatches, fmt.Sprintf(
				"%s: HS=%d below max live %d", c.Manager, res.HighWater, res.MaxLive))
		}
		if waste := res.WasteFactor(); waste > env {
			mismatches = append(mismatches, fmt.Sprintf(
				"%s: waste %.3f beyond documented envelope %.3f", c.Manager, waste, env))
		}
	}
	return mismatches
}

// RecordTrace runs prog once against the named deterministic manager
// and returns the exact request stream as a trace. Recording against a
// non-moving manager (the free-list fits) keeps the replay exact even
// for adaptive adversaries: no move ever happens, so no free-on-move
// is deferred to the following round (see the trace package docs),
// which makes P_F and Robson legal differential inputs.
func RecordTrace(cfg sim.Config, prog sim.Program, manager string) (*trace.Trace, error) {
	mgr, err := mm.New(manager)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(prog)
	e, err := sim.NewEngine(cfg, rec, mgr)
	if err != nil {
		return nil, err
	}
	if _, err := e.Run(); err != nil {
		return nil, fmt.Errorf("check: recording against %s: %w", manager, err)
	}
	return rec.Result(), nil
}
