// Process-level injectors for the distributed sweep: callbacks that a
// worker process installs at its lease-protocol hook points (after a
// claim, before a commit, around commit delivery) to die, hang, or
// double-deliver at a deterministic operation count. The chaos drill
// and the dist test suite use them to prove that coordinator-side
// fencing and lease expiry actually recover. The funcs are
// plain `func(int)` shapes so this package does not import
// internal/dist (the injectors stay at the dependency graph's leaves).
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// WorkerHooks carries process-level injector callbacks matching the
// hook points of internal/dist's worker loop. Zero-value fields mean
// "no fault at that point".
type WorkerHooks struct {
	// AfterClaim runs when a claimed cell's work is about to start.
	AfterClaim func(cell int)
	// BeforeCommit runs when a completed cell is about to be committed.
	BeforeCommit func(cell int)
	// CommitCopies decides how many times the commit for a cell is
	// delivered (nil or a return < 1 means exactly once).
	CommitCopies func(cell int) int
}

// KillAtCell returns a hook that SIGKILLs the current process when the
// nth claimed cell (1-based) is about to start — the injected analog
// of a chaos drill's random `kill -9`, pinned to a deterministic spot.
func KillAtCell(n int64) func(cell int) {
	var count atomic.Int64
	return func(int) {
		if count.Add(1) == n {
			kill()
		}
	}
}

// KillAtCommit returns a hook that SIGKILLs the current process when
// the nth completed cell (1-based) is about to commit: the work is
// done, the lease is live, and the result is lost — the coordinator
// must expire the lease and reassign.
func KillAtCommit(n int64) func(cell int) {
	var count atomic.Int64
	return func(int) {
		if count.Add(1) == n {
			kill()
		}
	}
}

// kill delivers SIGKILL to the current process: no deferred functions,
// no lease releases, no flushing — exactly what a crashed worker
// looks like from the coordinator's side.
func kill() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	// SIGKILL is not deliverable to a handler, but be defensive about
	// exotic platforms: never continue past this point.
	os.Exit(137)
}

// HangAtCell returns a hook that blocks forever when the nth claimed
// cell (1-based) is about to start: the worker holds its lease, stops
// heartbeating, and never commits — the hung-worker failure mode.
func HangAtCell(n int64) func(cell int) {
	var count atomic.Int64
	return func(int) {
		if count.Add(1) == n {
			select {}
		}
	}
}

// DuplicateCommit returns a CommitCopies hook that delivers the nth
// commit (1-based) twice. The coordinator must treat the second
// delivery as fenced and keep the merged results unchanged.
func DuplicateCommit(n int64) func(cell int) int {
	var count atomic.Int64
	return func(int) int {
		if count.Add(1) == n {
			return 2
		}
		return 1
	}
}

// TearFile truncates the file at path to keep bytes, simulating a
// torn trailing record from a writer killed mid-append. Ledger replay
// tests sweep keep across every byte offset of a valid log and require
// each prefix to boot clean.
func TearFile(path string, keep int64) error {
	if err := os.Truncate(path, keep); err != nil {
		return fmt.Errorf("faultinject: %w", err)
	}
	return nil
}

// ParseWorkerFault parses a worker fault spec into hooks. Specs:
//
//	""                  no fault
//	kill-at-cell=N      SIGKILL self when starting the Nth claimed cell
//	kill-at-commit=N    SIGKILL self when committing the Nth result
//	hang-at-cell=N      hold the lease of the Nth claimed cell forever
//	dup-commit=N        deliver the Nth commit twice
//
// The sweepworker frontend exposes this as -inject for drills; an
// unknown spec is a usage error.
func ParseWorkerFault(spec string) (WorkerHooks, error) {
	var h WorkerHooks
	if spec == "" {
		return h, nil
	}
	kind, arg, ok := strings.Cut(spec, "=")
	if !ok {
		return h, fmt.Errorf("faultinject: bad worker fault spec %q (want kind=N)", spec)
	}
	n, err := strconv.ParseInt(arg, 10, 64)
	if err != nil || n < 1 {
		return h, fmt.Errorf("faultinject: bad worker fault count %q (want a positive integer)", arg)
	}
	switch kind {
	case "kill-at-cell":
		h.AfterClaim = KillAtCell(n)
	case "kill-at-commit":
		h.BeforeCommit = KillAtCommit(n)
	case "hang-at-cell":
		h.AfterClaim = HangAtCell(n)
	case "dup-commit":
		h.CommitCopies = DuplicateCommit(n)
	default:
		return h, fmt.Errorf("faultinject: unknown worker fault kind %q (want kill-at-cell, kill-at-commit, hang-at-cell or dup-commit)", kind)
	}
	return h, nil
}
