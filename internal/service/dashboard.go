package service

import (
	_ "embed"
	"net/http"
)

// dashboardHTML is the single-file live dashboard: vanilla JS over the
// same public API the CLI clients use (job list polling, plus a fetch
// that follows the selected job's NDJSON /events), embedded so
// compactd ships as one binary.
//
//go:embed dashboard.html
var dashboardHTML []byte

func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(dashboardHTML)
}
