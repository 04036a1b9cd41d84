package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestHandlerConcurrentScrape hammers the HTTP metrics handler while
// writers emit into the same registry — the exact shape of a compactd
// deployment, where a scraper reads /metrics/prom while sweep workers
// and engine tracers update counters, gauges and histograms. The test
// is meaningful under -race (the obs package is in the race target):
// it exists to catch torn reads or check-then-act races between the
// scrape path (WritePrometheus) and the atomic hot path.
func TestHandlerConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	const (
		writers = 4
		scrapes = 25
		emits   = 2000
	)
	// Register the shared set before any goroutine starts: a scraper can
	// be served before the first writer runs, and /metrics/prom must list
	// test.shared even then. The writers still look it up concurrently.
	reg.Counter("test.shared", "")
	reg.Gauge("test.gauge", "")
	reg.Histogram("test.sizes", "")
	var wg sync.WaitGroup
	// Writers: each drives its own metric plus a shared contended set.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := reg.Counter(fmt.Sprintf("test.writer%02d", w), "")
			shared := reg.Counter("test.shared", "")
			gauge := reg.Gauge("test.gauge", "")
			hist := reg.Histogram("test.sizes", "")
			for i := 0; i < emits; i++ {
				own.Inc()
				shared.Add(2)
				gauge.Set(int64(i))
				hist.Observe(int64(i % 4096))
			}
		}(w)
	}
	// Scrapers: /metrics/prom while the writers are running. Each
	// scrape must parse, and list test.shared.
	errs := make(chan error, 2*scrapes)
	for s := 0; s < scrapes; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := get(srv.URL + "/metrics/prom")
			if err != nil {
				errs <- err
				return
			}
			if _, err := ParsePrometheus([]byte(body)); err != nil {
				errs <- fmt.Errorf("/metrics/prom does not parse: %v\n%s", err, body)
			}
			if !strings.Contains(body, "\ntest_shared ") {
				errs <- fmt.Errorf("/metrics/prom missing test_shared:\n%s", body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiesced totals must be exact: the atomic hot path may not lose
	// updates under scrape pressure.
	if got, want := reg.Counter("test.shared", "").Value(), int64(2*writers*emits); got != want {
		t.Errorf("test.shared = %d, want %d", got, want)
	}
	if got, want := bucketTotal(reg.Histogram("test.sizes", "")), int64(writers*emits); got != want {
		t.Errorf("test.sizes count = %d, want %d", got, want)
	}
}

func get(url string) (string, error) {
	r, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, r.StatusCode)
	}
	b, err := io.ReadAll(r.Body)
	return string(b), err
}

// TestHandlerServesOneExposition: the handler serves the Prometheus
// exposition and pprof, and nothing at the retired plain-text
// /metrics and expvar /debug/vars paths.
func TestHandlerServesOneExposition(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry()))
	defer srv.Close()
	for path, want := range map[string]int{
		"/metrics/prom": http.StatusOK,
		"/debug/pprof/": http.StatusOK,
		"/metrics":      http.StatusNotFound,
		"/debug/vars":   http.StatusNotFound,
	} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, r.StatusCode, want)
		}
	}
}
