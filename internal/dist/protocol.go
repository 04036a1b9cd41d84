package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"compaction/internal/resume"
	"compaction/internal/sim"
	"compaction/internal/sweep"
)

// Request is one worker→coordinator message. The same schema rides
// both transports: one JSON object per line over an NDJSON pipe, or
// the body of POST /v1/lease over localhost HTTP.
type Request struct {
	// Op is the operation: claim, renew, commit, fail, release, goodbye.
	Op     string `json:"op"`
	Worker string `json:"worker"`
	Cell   int    `json:"cell,omitempty"`
	Token  uint64 `json:"token,omitempty"`
	// Result rides commit requests.
	Result *sim.Result `json:"result,omitempty"`
	// Attempts rides commit and fail requests: the attempts the
	// worker's sweep spent on the cell, 0 to the grant's Retries+1.
	Attempts int `json:"attempts,omitempty"`
	// Kind and Reason ride fail requests: the hole's failure class and
	// its cause, the hole's unwrapped error text.
	Kind   sweep.FailKind `json:"kind,omitempty"`
	Reason string         `json:"reason,omitempty"`
}

// Response is the coordinator's answer.
type Response struct {
	OK bool `json:"ok"`
	// Done: the grid is settled; the worker should say goodbye and
	// exit cleanly.
	Done bool `json:"done,omitempty"`
	// Fenced: the operation was rejected by lease fencing — the lease
	// expired and was reassigned, the token is superseded, or the
	// commit is a duplicate. The worker drops the work and moves on.
	Fenced bool `json:"fenced,omitempty"`
	// Task, Token and TTLMillis carry a granted lease; Retries and
	// CellTimeout (in nanoseconds on the wire) the grid's failure
	// policy the worker runs the cell under.
	Task        *Task         `json:"task,omitempty"`
	Token       uint64        `json:"token,omitempty"`
	TTLMillis   int64         `json:"ttl_ms,omitempty"`
	Retries     int           `json:"retries,omitempty"`
	CellTimeout time.Duration `json:"cell_timeout_ns,omitempty"`
	// Error reports a coordinator-side problem (unknown op, fenced
	// coordinator). Transport-level retries apply; fencing does not.
	Error string `json:"error,omitempty"`
}

// maxMessage bounds one protocol message on either transport: an HTTP
// request body, or a line of the NDJSON pipe.
const maxMessage = 1 << 20

// Handle dispatches one protocol request against the coordinator. It
// is the single entry point both transports go through.
func (c *Coordinator) Handle(req Request) Response {
	// A worker's sweep spends at most Retries+1 attempts on a cell, and
	// none on a cell it could not build.
	most := max(c.o.Retries, 0) + 1
	if (req.Op == "commit" || req.Op == "fail") && (req.Attempts < 0 || req.Attempts > most) {
		return Response{Error: fmt.Sprintf("%s after %d attempts, want 0 to %d", req.Op, req.Attempts, most)}
	}
	switch req.Op {
	case "claim":
		return c.Claim(req.Worker)
	case "renew":
		return respond(c.Renew(req.Worker, req.Cell, req.Token))
	case "commit":
		if req.Result == nil {
			return Response{Error: "commit without a result"}
		}
		return respond(c.Commit(req.Worker, req.Cell, req.Token, *req.Result, req.Attempts))
	case "fail":
		// A worker ends a cell it ran as one of these; it releases the
		// lease of a cell it stopped.
		if req.Kind != sweep.FailError && req.Kind != sweep.FailPanic && req.Kind != sweep.FailDeadline {
			return Response{Error: fmt.Sprintf("fail with a %s hole", req.Kind)}
		}
		return respond(c.Fail(req.Worker, req.Cell, req.Token, req.Kind, req.Attempts, req.Reason))
	case "release":
		return respond(c.Release(req.Worker, req.Cell, req.Token))
	case "goodbye":
		c.Goodbye(req.Worker)
		return Response{OK: true}
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// respond maps a coordinator error to the wire: fencing rejections are
// a dedicated flag (expected protocol traffic, not failures).
func respond(err error) Response {
	switch {
	case err == nil:
		return Response{OK: true}
	case errors.Is(err, resume.ErrFenced):
		return Response{Fenced: true}
	default:
		return Response{Error: err.Error()}
	}
}

// Conn is the worker's view of a coordinator, over any transport.
type Conn interface {
	Call(ctx context.Context, req Request) (Response, error)
}

// leasePath is the HTTP endpoint both sides agree on.
const leasePath = "/v1/lease"

// Handler serves the lease protocol over HTTP: POST /v1/lease with a
// Request body of at most maxMessage bytes returns a Response.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+leasePath, func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMessage)).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(c.Handle(req)); err != nil {
			// The client went away mid-response; its retry (or lease
			// expiry) recovers.
			return
		}
	})
	return mux
}

// Serve runs the lease protocol over HTTP on the listener until the
// coordinator's Wait returns, and returns its error. A settled grid is
// served on until every worker in the alive set has said goodbye or
// been silent for 3×LeaseTTL, the limit at which the set forgets it
// (or ctx is canceled): a worker backing off after an empty claim when
// the last cell settles then hears Done, not a refused connection.
// Then connections that never sent a request are closed at once, and
// Serve waits at most 2 s for requests in flight.
func Serve(ctx context.Context, c *Coordinator, l net.Listener) error {
	fresh := &freshConns{conns: make(map[net.Conn]struct{})}
	srv := &http.Server{Handler: Handler(c), ReadHeaderTimeout: 10 * time.Second, ConnState: fresh.track}
	go func() {
		// Serve's error is ErrServerClosed on Shutdown; anything else
		// means the listener died, which Wait notices by workers going
		// silent.
		_ = srv.Serve(l)
	}()
	err := c.Wait(ctx)
	if c.Done() {
		c.awaitFarewells(ctx)
	}
	fresh.closeAll()
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(sctx)
	return err
}

// freshConns tracks the lease server's connections that have not sent
// a request yet. http.Server.Shutdown counts such a connection as busy
// for its first 5 s; once no worker is left to send on it, Serve
// closes it instead.
type freshConns struct {
	mu     sync.Mutex            //compactlint:lockrank 30
	conns  map[net.Conn]struct{} //compactlint:guardedby mu
	closed bool                  //compactlint:guardedby mu
}

// track is the server's ConnState hook: a connection is fresh from
// StateNew to its first other state. After closeAll, a new connection
// is closed as it arrives.
func (f *freshConns) track(c net.Conn, s http.ConnState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case s == http.StateNew && f.closed:
		c.Close()
	case s == http.StateNew:
		f.conns[c] = struct{}{}
	default:
		delete(f.conns, c)
	}
}

// closeAll closes every fresh connection, and from now on each new one.
func (f *freshConns) closeAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for c := range f.conns {
		c.Close()
	}
}

// HTTPConn is the worker-side HTTP transport.
type HTTPConn struct {
	// Base is the coordinator's base URL, e.g. "http://127.0.0.1:7171".
	Base string
	// Client, if nil, uses a dedicated client with sane timeouts.
	Client *http.Client
}

// Call implements Conn.
func (h *HTTPConn) Call(ctx context.Context, req Request) (Response, error) {
	client := h.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return Response{}, fmt.Errorf("dist: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.Base+leasePath, bytes.NewReader(body))
	if err != nil {
		return Response{}, fmt.Errorf("dist: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := client.Do(hreq)
	if err != nil {
		return Response{}, fmt.Errorf("dist: %w", err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(hres.Body, 1<<10))
		return Response{}, fmt.Errorf("dist: coordinator returned %s: %s", hres.Status, bytes.TrimSpace(b))
	}
	var resp Response
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("dist: %w", err)
	}
	return resp, nil
}

// ServeLines runs the lease protocol over an NDJSON pipe: one Request
// per line on r, one Response per line on w — the transport for
// workers wired up over stdin/stdout instead of a socket. It returns
// when r is exhausted (the worker hung up) or w fails.
func ServeLines(c *Coordinator, r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxMessage)
	enc := json.NewEncoder(w)
	for sc.Scan() {
		var req Request
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			resp = Response{Error: "bad request: " + err.Error()}
		} else {
			resp = c.Handle(req)
		}
		if err := enc.Encode(resp); err != nil {
			return fmt.Errorf("dist: %w", err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	return nil
}

// LineConn is the worker-side NDJSON pipe transport: requests written
// to w, responses read from r, strictly one in flight at a time.
type LineConn struct {
	mu  sync.Mutex     //compactlint:lockrank 20
	enc *json.Encoder  //compactlint:guardedby mu
	sc  *bufio.Scanner //compactlint:guardedby mu
}

// NewLineConn builds a LineConn over the pipe pair.
func NewLineConn(r io.Reader, w io.Writer) *LineConn {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxMessage)
	return &LineConn{enc: json.NewEncoder(w), sc: sc}
}

// Call implements Conn. Pipes carry no per-call cancellation; ctx is
// honored between calls.
func (l *LineConn) Call(ctx context.Context, req Request) (Response, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return Response{}, fmt.Errorf("dist: %w", err)
	}
	if err := l.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("dist: %w", err)
	}
	if !l.sc.Scan() {
		if err := l.sc.Err(); err != nil {
			return Response{}, fmt.Errorf("dist: %w", err)
		}
		return Response{}, fmt.Errorf("dist: coordinator pipe closed")
	}
	var resp Response
	if err := json.Unmarshal(l.sc.Bytes(), &resp); err != nil {
		return Response{}, fmt.Errorf("dist: %w", err)
	}
	return resp, nil
}
