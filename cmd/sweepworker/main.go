// Command sweepworker is a distributed-sweep worker: it pulls cell
// leases from a compactsim coordinator, runs each cell through the
// sweep machinery under the retries and cell timeout the lease
// carries (the coordinator's -retries and -cell-timeout), and commits
// the result, or reports the hole, back under the lease's fencing
// token.
//
//	compactsim -adversary pf -sweep 8,16,32 -coordinate 127.0.0.1:7171 ... &
//	sweepworker -coordinator http://127.0.0.1:7171
//	sweepworker -coordinator -          # NDJSON over stdin/stdout
//
// The first SIGTERM/SIGINT drains the worker: it finishes and commits
// the in-flight cell, says goodbye, and exits 0. A second signal
// abandons the cell (its lease is released, so the cell is claimable
// immediately) and exits 3. Exit codes match compactsim: 0 success,
// 1 error, 2 usage, 3 interrupted.
//
// -inject plants a process-level fault for chaos drills (see
// internal/faultinject): kill-at-cell=N, kill-at-commit=N,
// hang-at-cell=N, dup-commit=N.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"compaction/internal/dist"
	"compaction/internal/faultinject"

	_ "compaction/internal/mm/all"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole worker frontend: flags, transport, fault
// injection, the two-stage signal drain and the exit code. stdin and
// stdout carry the NDJSON transport of -coordinator -.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coordinator = fs.String("coordinator", "", "coordinator address: an http://host:port base URL, or - for NDJSON over stdin/stdout")
		id          = fs.String("id", "", "worker name used in leases (default worker-<pid>)")
		inject      = fs.String("inject", "", "fault to inject, for drills: kill-at-cell=N, kill-at-commit=N, hang-at-cell=N or dup-commit=N")
		quiet       = fs.Bool("quiet", false, "suppress per-lease progress lines on stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "sweepworker: "+format+"\n", args...)
	}
	if *quiet {
		logf = func(string, ...any) {}
	}
	if *coordinator == "" {
		fmt.Fprintln(stderr, "sweepworker: a coordinator address is required (-coordinator URL, or - for stdio)")
		return 2
	}
	if *id == "" {
		*id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	hooks, err := faultinject.ParseWorkerFault(*inject)
	if err != nil {
		fmt.Fprintln(stderr, "sweepworker:", err)
		return 2
	}
	var conn dist.Conn = &dist.HTTPConn{Base: *coordinator}
	if *coordinator == "-" {
		conn = dist.NewLineConn(stdin, stdout)
	}

	// The first SIGTERM/SIGINT stops claiming new leases and lets the
	// in-flight cell finish and commit; the second abandons the cell.
	runCtx, hardStop := context.WithCancel(ctx)
	claimCtx, drain := context.WithCancel(runCtx)
	defer drain()
	sigc := make(chan os.Signal, 2) // one slot per stage: drain, then hard stop
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	sigDone := make(chan struct{})
	defer func() {
		hardStop()
		<-sigDone
	}()
	go func() {
		defer close(sigDone)
		select {
		case <-sigc:
			logf("worker %s: draining (finishing the in-flight cell; signal again to abandon it)", *id)
			drain()
		case <-runCtx.Done():
			return
		}
		select {
		case <-sigc:
			logf("worker %s: hard stop", *id)
			hardStop()
		case <-runCtx.Done():
		}
	}()

	w := dist.NewWorker(conn, dist.WorkerOptions{
		ID: *id,
		Hooks: dist.Hooks{
			AfterClaim:   hooks.AfterClaim,
			BeforeCommit: hooks.BeforeCommit,
			CommitCopies: hooks.CommitCopies,
		},
		Logf: logf,
	})
	err = w.Run(runCtx, claimCtx)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintln(stderr, "sweepworker: interrupted:", err)
		return 3
	default:
		fmt.Fprintln(stderr, "sweepworker:", err)
		return 1
	}
}
