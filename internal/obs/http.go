package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns the live-introspection mux for a registry:
//
//	/metrics/prom   Prometheus text exposition 0.0.4
//	                (Registry.WritePrometheus) — point a scraper here
//	/debug/pprof/   the standard pprof index, profiles and traces
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics/prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr (":0" picks a free port) and serves Handler(reg) on
// it in a background goroutine for the life of the process. It returns
// the bound address.
func Serve(addr string, reg *Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		srv := &http.Server{Handler: Handler(reg)}
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}
