// Command compactd is the resident simulation service: a long-running
// HTTP server over the sweep engine. Tenants submit simulation and
// sweep specs to its job API, stream per-round event series live as
// NDJSON, and fetch result CSVs; jobs are admission-controlled by
// per-tenant quotas and restart-durable — a SIGTERM mid-sweep loses
// nothing, because every job checkpoints through a resume journal and
// compactd re-enqueues owed jobs on the next boot.
//
// Usage:
//
//	compactd -addr :8080 -data /var/lib/compactd
//	compactd -addr :8080 -data d -tenants 's3cret=alice:2:512,t0k=bob'
//
// With -tenants the API requires a bearer token in the Authorization
// header and quotas are enforced per tenant; without it the server is
// open (one shared "public" tenant with default quotas). With no -data
// the server is ephemeral: jobs run but nothing survives a restart.
// The same listener serves the service metrics as Prometheus text at
// /metrics/prom and pprof under /debug/pprof/.
//
// Exit codes: 0 clean shutdown (SIGINT/SIGTERM drain in-flight jobs
// to their last checkpoint first), 1 runtime error, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "compaction/internal/mm/all"
	"compaction/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		data      = flag.String("data", "", "data directory for restart-durable jobs (empty: ephemeral)")
		tenants   = flag.String("tenants", "", "tenant table 'token=name[:maxjobs[:maxcells]],...' (empty: open access)")
		maxActive = flag.Int("max-active", service.DefaultMaxActive, "jobs running concurrently; admitted jobs beyond this queue")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "compactd: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	ts, err := service.ParseTenants(*tenants)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compactd: %v\n", err)
		os.Exit(2)
	}

	srv := service.New(service.Config{Dir: *data, Tenants: ts, MaxActive: *maxActive})

	// First signal: graceful shutdown (stop listening, cancel jobs,
	// drain to the last checkpoint). Second signal: NotifyContext has
	// restored the default disposition, so it kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, warn := range srv.Start(ctx) {
		fmt.Fprintf(os.Stderr, "compactd: recovery: %v\n", warn)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compactd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("compactd: serving on http://%s (data %q, %d tenants)\n",
		ln.Addr(), *data, len(ts))

	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "compactd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Println("compactd: shutting down; draining jobs to their checkpoints")
	// In-flight jobs see the canceled context and stop at the next
	// round boundary, having journaled every completed cell; they are
	// deliberately NOT settled, so the next boot resumes them.
	srv.Wait()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(sctx)
	fmt.Println("compactd: bye")
}
