package main

import (
	"strings"
	"testing"

	"compaction/internal/lint/driver"
)

// TestSmokeBadModule runs the full multichecker over the known-bad
// fixture module and asserts both the exit code and one diagnostic
// per analyzer — the end-to-end contract `make lint` relies on.
func TestSmokeBadModule(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-dir", "testdata/badmod", "./..."}, &out, &errw)
	if code != driver.ExitDiags {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, driver.ExitDiags, errw.String())
	}
	got := out.String()
	for _, want := range []string{
		"e.tracer.Emit is not behind a nil guard",
		"(nilguard)",
		"formatted with %v flattens the chain",
		"(wrapcheck)",
		"time.Now reads the wall clock",
		"(determinism)",
		"context.Background in a library package",
		"(ctxflow)",
		"make allocates in a noalloc function",
		"(noalloc)",
		"lock ranks must strictly increase",
		"(lockorder)",
		"guarded by m.mu but accessed without holding it",
		"(atomicguard)",
		"no reachable termination path",
		"(goroleak)",
		"no parent-directory fsync follows on every path",
		"(fsyncpath)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q\noutput:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "\n"); n != 9 {
		t.Errorf("expected exactly 9 diagnostics, got %d:\n%s", n, got)
	}
}

// TestRevertDrills re-introduces each of the four shipped-and-fixed
// bugs the CFG/dataflow analyzers are the static twins of — the PR 4
// ticker leak, the PR 7 lock-free snapshot read, an inverted lock
// order, the PR 9 missing directory fsync — and proves the suite turns
// red on each, while the clean tree (TestRepoIsClean) stays green.
// This is the revert drill: if any of those fixes regresses, the build
// fails before any test has to catch it dynamically.
func TestRevertDrills(t *testing.T) {
	drills := []struct {
		name, pattern, analyzer, want string
	}{
		{"PR4-ticker-leak", "./internal/service/...", "goroleak",
			"time.NewTicker result t is never stopped"},
		{"PR7-snapshot-race", "./internal/heap/sharded/...", "atomicguard",
			"s.live is guarded by s.mu but accessed without holding it"},
		{"inverted-lock-order", "./internal/dist/...", "lockorder",
			"lock ranks must strictly increase"},
		{"PR9-missing-dir-fsync", "./internal/resume/...", "fsyncpath",
			"no parent-directory fsync follows on every path"},
	}
	for _, d := range drills {
		t.Run(d.name, func(t *testing.T) {
			var out, errw strings.Builder
			code := run([]string{"-dir", "testdata/revert", d.pattern}, &out, &errw)
			if code != driver.ExitDiags {
				t.Fatalf("exit code = %d, want %d (stdout: %s, stderr: %s)",
					code, driver.ExitDiags, out.String(), errw.String())
			}
			if !strings.Contains(out.String(), d.want) {
				t.Errorf("drill output missing %q:\n%s", d.want, out.String())
			}
			if !strings.Contains(out.String(), "("+d.analyzer+")") {
				t.Errorf("drill not attributed to %s:\n%s", d.analyzer, out.String())
			}
		})
	}
}

// TestRepoIsClean pins the acceptance criterion that the tree itself
// is clean under the whole suite: the static pin on every invariant,
// enforced by `go test` as well as `make lint`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("re-type-checks the whole module; skipped with -short")
	}
	var out, errw strings.Builder
	code := run([]string{"-dir", "../..", "./..."}, &out, &errw)
	if code != driver.ExitClean {
		t.Fatalf("compactlint over the repo: exit %d, want %d\n%s%s",
			code, driver.ExitClean, out.String(), errw.String())
	}
}

// TestRepoWaiversJustified runs the -waivers audit over the tree:
// every //compactlint:allow must carry a reason, and the total is
// pinned so a new waiver is a reviewed decision, not drift.
func TestRepoWaiversJustified(t *testing.T) {
	if testing.Short() {
		t.Skip("re-loads the whole module; skipped with -short")
	}
	var out, errw strings.Builder
	code := run([]string{"-dir", "../..", "-waivers", "./..."}, &out, &errw)
	if code != driver.ExitClean {
		t.Fatalf("-waivers audit: exit %d, want %d\n%s%s",
			code, driver.ExitClean, out.String(), errw.String())
	}
	const pinned = 8
	want := "8 waivers, 0 unjustified"
	if !strings.Contains(out.String(), want) {
		t.Errorf("waiver audit should report %q (pinned count %d; update deliberately when adding a reviewed waiver):\n%s",
			want, pinned, out.String())
	}
}

// TestWaiversAuditFlagsMissingReason pins the audit's teeth on the
// fixture module, whose one bare waiver must fail the audit.
func TestWaiversAuditFlagsMissingReason(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-dir", "testdata/badmod", "-waivers", "./..."}, &out, &errw)
	if code != driver.ExitDiags {
		t.Fatalf("-waivers over badmod: exit %d, want %d\n%s%s",
			code, driver.ExitDiags, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "MISSING REASON") {
		t.Errorf("audit output missing the MISSING REASON finding:\n%s", out.String())
	}
}

// TestListFlag keeps the -list inventory in sync with the suite.
func TestListFlag(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-list"}, &out, &errw); code != driver.ExitClean {
		t.Fatalf("-list exit code = %d", code)
	}
	for _, name := range []string{
		"ctxflow", "determinism", "nilguard", "noalloc", "wrapcheck",
		"atomicguard", "fsyncpath", "goroleak", "lockorder",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

// TestTimingFlag pins the -timing contract: one stderr line per
// analyzer, findings unaffected.
func TestTimingFlag(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-dir", "testdata/badmod", "-timing", "./..."}, &out, &errw)
	if code != driver.ExitDiags {
		t.Fatalf("exit code = %d, want %d", code, driver.ExitDiags)
	}
	for _, name := range []string{"lockorder", "noalloc"} {
		if !strings.Contains(errw.String(), "timing: "+name) {
			t.Errorf("-timing stderr missing %q:\n%s", name, errw.String())
		}
	}
}

// TestLoadFailure pins the distinct exit code for driver errors, so
// CI cannot mistake "could not load" for "clean".
func TestLoadFailure(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"./no/such/dir/..."}, &out, &errw); code != driver.ExitError {
		t.Fatalf("exit code = %d, want %d", code, driver.ExitError)
	}
}
