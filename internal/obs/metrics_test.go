package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.Gauge("g", "")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d", g.Value())
	}
	if r.Counter("c", "") != c || r.Gauge("g", "") != g {
		t.Fatal("lookup did not return the registered metric")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering x as a gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}

// TestHistogramBucketsAndQuantiles: 1..100 fill the power-of-two
// buckets 1–7, and the nearest-rank quantiles a scraper reads off the
// cumulative le edges fall where the histBuckets table puts them: the
// 50th value under le=63 (bucket 6), the 99th and 100th under le=127
// (bucket 7).
func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %d", h.Sum())
	}
	want := [histBuckets]int64{1: 1, 2: 2, 3: 4, 4: 8, 5: 16, 6: 32, 7: 37}
	var cum [histBuckets]int64
	for i := range want {
		if got := h.buckets[i].Load(); got != want[i] {
			t.Errorf("bucket %d holds %d, want %d", i, got, want[i])
		}
		cum[i] = want[i]
		if i > 0 {
			cum[i] += cum[i-1]
		}
	}
	for _, c := range []struct {
		q      float64
		bucket int
	}{{0, 1}, {0.5, 6}, {0.99, 7}, {1, 7}} {
		rank := int64(Rank(100, c.q))
		if cum[c.bucket] <= rank || cum[c.bucket-1] > rank {
			t.Errorf("q=%v (rank %d) is not in bucket %d (le=%d)", c.q, rank, c.bucket, bucketUpper(c.bucket))
		}
	}
}

func TestHistogramNonPositiveObservations(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	if got := h.buckets[0].Load(); got != 2 {
		t.Fatalf("non-positive observations must land in bucket 0, it holds %d", got)
	}
}

// TestRankMatchesNearestRank pins the shared quantile rule against the
// definition stats.Quantile has always used.
func TestRankMatchesNearestRank(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
			want := int(math.Ceil(q*float64(n))) - 1
			if q <= 0 {
				want = 0
			}
			if q >= 1 {
				want = n - 1
			}
			if want < 0 {
				want = 0
			}
			if got := Rank(n, q); got != want {
				t.Fatalf("Rank(%d, %v) = %d, want %d", n, q, got, want)
			}
		}
	}
}

func TestQuantileSorted(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sort.Float64s(xs)
	if got := QuantileSorted(xs, 0.5); got != 5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := QuantileSorted(xs, 0.9); got != 9 {
		t.Fatalf("p90 = %v", got)
	}
	if QuantileSorted(nil, 0.5) != 0 {
		t.Fatal("empty input")
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared", "")
			h := r.Histogram("hist", "")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if r.Counter("shared", "").Value() != 8000 {
		t.Fatalf("lost updates: %d", r.Counter("shared", "").Value())
	}
	if n := bucketTotal(r.Histogram("hist", "")); n != 8000 {
		t.Fatalf("lost observations: %d", n)
	}
}

// bucketTotal is the number of observations h holds: the _count the
// Prometheus exposition reports.
func bucketTotal(h *Histogram) int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}
