package service

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"
)

// TestHeapFollowsLiveWork: a resident durable server's live heap
// grows with its terminal jobs' statuses, not with the samplers their
// cells ran or the bodies they serve, which are in the store. One
// server serves 20 and then 60 jobs of the benchmark's compactd-jobs
// shape, each followed to its end and its result fetched; between the
// two points the post-GC heap may grow by at most 8 KiB per job. A
// server that keeps each terminal job's heatmap, /heapstats, result
// and stream bytes grows by about 75 KiB per job; one that keeps every
// cell's sampler (about 67 KiB each after a 50-round cell, two cells a
// job) by about 130 KiB.
func TestHeapFollowsLiveWork(t *testing.T) {
	const (
		first, total = 20, 60
		maxPerJob    = 8 << 10
	)
	_, hs := startServer(t, Config{Dir: t.TempDir()})
	managers := []string{"first-fit", "tlsf", "threshold", "bitmap-first-fit"}
	serve := func(from, to int) {
		for k := from; k < to; k++ {
			st := mustSubmit(t, hs.URL, "", fmt.Sprintf(
				`{"program":"random","manager":%q,"m":4096,"n":64,"cs":[4,16],"rounds":50,"seed":%d}`,
				managers[k%len(managers)], k+1))
			streamNDJSON(t, hs.URL, "", st.ID, 0)
			if final := waitTerminal(t, hs.URL, "", st.ID); final.State != StateDone || final.Failed != 0 {
				t.Fatalf("job %s settled %s (failed=%d): %s", st.ID, final.State, final.Failed, final.Error)
			}
			if resp, body := request(t, "GET", hs.URL+"/v1/jobs/"+st.ID+"/result", "", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("result of %s: %d %s", st.ID, resp.StatusCode, body)
			}
		}
	}
	// Two collections: the first moves what the standard library's
	// sync.Pools hold (HTTP and encoder buffers) to their victim
	// caches, the second frees it.
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	serve(0, first)
	h1 := liveHeap()
	serve(first, total)
	h2 := liveHeap()
	perJob := (h2 - h1) / (total - first)
	t.Logf("post-GC heap %d KiB after %d jobs, %d KiB after %d: %d KiB per job",
		h1>>10, first, h2>>10, total, perJob>>10)
	if perJob > maxPerJob {
		t.Errorf("post-GC heap grew %d KiB per job between %d and %d jobs, want at most %d KiB",
			perJob>>10, first, total, maxPerJob>>10)
	}
}
