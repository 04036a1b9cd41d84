package compaction_test

import (
	"os"
	"strings"
	"testing"
	"time"

	"compaction"
	"compaction/internal/bounds"
	"compaction/internal/check"
	"compaction/internal/core"
	"compaction/internal/obs"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// paperScaleDeadline bounds the wall clock of one refereed paper-scale
// run. Measured under the exact referee with this test run alone on a
// 2-CPU Intel Xeon VM (Go 1.24): 13.6 s for first-fit and 22.4 s for
// threshold, with the process peaking at 3.4 GiB resident (VmHWM
// 3,512,388 kB). The deadline leaves ample headroom for slower CI
// runners while still catching an accidental return to the
// pre-optimization engine, whose projected time at this scale
// (extrapolated from the ~7× per-round slowdown at M=2^16, compounded
// by per-round reallocation at 256× the object count) is far beyond
// it.
const paperScaleDeadline = 10 * time.Minute

// TestSim1PaperScaleSmoke runs P_F at the paper's own scale —
// M = 2^24 words of live space, objects up to n = 2^12 words — against
// a non-moving manager and a compacting one, under the exact referee.
// It asserts the Theorem 1 conclusion (HS ≥ h·M) and that the run
// finishes within a CI-tolerable deadline, and logs each manager's
// wall time and the process's peak resident set so far (VmHWM), the
// headroom a small host has left.
//
// The referee checks every placement, free and move against its own
// word bitmap, at a cost per operation independent of the live set,
// so even 16.7M live objects are checked exactly.
func TestSim1PaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale smoke skipped in -short mode")
	}
	cfg := sim.Config{M: 1 << 24, N: 1 << 12, C: 16, Pow2Only: true}
	h, _, err := bounds.Theorem1(bounds.Params{M: cfg.M, N: cfg.N, C: cfg.C})
	if err != nil {
		t.Fatal(err)
	}
	floor := word.Size(float64(cfg.M) * h)
	for _, name := range []string{"first-fit", "threshold"} {
		t.Run(name, func(t *testing.T) {
			// A multi-minute run should not be silent: tee SimMetrics
			// into the refereed engine and log its gauges periodically.
			sm := obs.NewSimMetrics(obs.NewRegistry())
			done := make(chan struct{})
			defer close(done)
			go func() {
				tick := time.NewTicker(30 * time.Second)
				defer tick.Stop()
				for {
					select {
					case <-done:
						return
					case <-tick.C:
						t.Logf("%s: progress: %d rounds, live=%d, hs=%d, %d moves, %d sweeps",
							name, sm.Rounds.Value(), sm.Live.Value(), sm.HighWater.Value(),
							sm.Moves.Value(), sm.Sweeps.Value())
					}
				}
			}()
			start := time.Now()
			rep, err := check.Run(cfg, compaction.NewPF(core.Options{}), name, sm)
			if err != nil {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			if !rep.Ok() {
				t.Fatalf("refereed paper-scale run failed: %s", rep)
			}
			t.Logf("%s: HS=%d waste=%.3f (floor %.3f) rounds done in %s",
				name, rep.Result.HighWater, rep.Result.WasteFactor(), h, elapsed)
			if hwm, ok := peakRSS(); ok {
				t.Logf("%s: wall %s, process VmHWM %s", name, elapsed.Round(time.Second), hwm)
			}
			if rep.Result.HighWater < floor {
				t.Errorf("HS = %d below Theorem 1 floor h·M = %d (h=%.3f): adversary lost power at paper scale",
					rep.Result.HighWater, floor, h)
			}
			if elapsed > paperScaleDeadline {
				t.Errorf("run took %s, over the %s deadline: paper scale is no longer CI-tolerable",
					elapsed, paperScaleDeadline)
			}
		})
	}
}

// peakRSS returns the VmHWM line of /proc/self/status, the process's
// peak resident set size, where that file exists.
func peakRSS() (string, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "", false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}
