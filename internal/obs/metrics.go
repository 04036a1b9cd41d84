package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric with an atomic hot
// path.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
//
//compactlint:noalloc
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//compactlint:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value with an atomic hot path.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
//
//compactlint:noalloc
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n.
//
//compactlint:noalloc
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of log-scaled histogram buckets: bucket i
// holds observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i). Non-positive observations land in bucket 0. 64
// buckets cover the whole int64 range.
//
// The full bucket → value-range mapping, pinned by the boundary-value
// tests in metrics_edge_test.go:
//
//	bucket i | holds v in           | upper edge (Prometheus le)
//	---------+----------------------+---------------------------
//	0        | v ≤ 0                | 0
//	1        | 1                    | 1
//	2        | [2, 3]               | 3
//	3        | [4, 7]               | 7
//	i (1–62) | [2^(i−1), 2^i − 1]   | 2^i − 1
//	63       | [2^62, MaxInt64]     | MaxInt64
//
// Bucket 63 doubles as the overflow bucket: every positive int64 has
// bits.Len64 ≤ 63, so indices never reach histBuckets and MaxInt64
// itself lands in bucket 63 with upper edge MaxInt64 (bucketUpper
// special-cases i ≥ 63 because 2^63 − 1 cannot be formed by shifting).
// Exact powers of two sit at the bottom of their bucket: Observe(2^k)
// lands in bucket k+1, whose upper edge is 2^(k+1) − 1 — a quantile
// read off the le edges is deliberately coarse, never under-reporting
// by more than 2×.
const histBuckets = 64

// Histogram aggregates int64 observations into power-of-two buckets
// with an atomic, allocation-free Observe. It is the right shape for
// the long-tailed quantities of the pipeline: allocation sizes,
// free-span lengths, move distances, per-round latencies.
type Histogram struct {
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf returns the bucket index for an observation.
//
//compactlint:noalloc
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketUpper returns the largest value bucket i can hold: its le
// edge in the Prometheus exposition.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Pow2Bucket returns the index of the power-of-two bucket holding v —
// Histogram's bucket mapping (see the table at histBuckets), exported
// so sibling packages share one size-class scheme: heapscope's
// free-interval census uses it to bucket gap lengths exactly like a
// Histogram would.
//
//compactlint:noalloc
func Pow2Bucket(v int64) int { return bucketOf(v) }

// Pow2Buckets is the number of buckets Pow2Bucket can return indices
// for (0 through Pow2Buckets−1).
const Pow2Buckets = histBuckets

// Pow2BucketUpper returns the largest value bucket i holds, the
// exported form of the upper edges in the histBuckets table.
func Pow2BucketUpper(i int) int64 { return bucketUpper(i) }

// Observe records one value.
//
//compactlint:noalloc
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Rank returns the 0-based index of the q-quantile under the
// nearest-rank definition (ceil(q·n) − 1, clamped to [0, n−1]). It is
// the single quantile rule of the repository: QuantileSorted, and
// through it stats.Quantile, applies it to exact sorted samples.
func Rank(n int, q float64) int {
	if n <= 0 {
		return 0
	}
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return n - 1
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// QuantileSorted returns the q-quantile of an ascending-sorted sample
// by nearest rank. It returns 0 for empty input.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[Rank(len(sorted), q)]
}

// Registry is a named collection of metrics. Lookup and registration
// take a mutex; the metrics themselves are lock-free, so the hot path
// (holding *Counter etc. directly) never contends.
type Registry struct {
	mu   sync.Mutex
	vars map[string]any
	help map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]any), help: make(map[string]string)}
}

// lookup returns the metric under name, creating it with mk and
// recording its help text when absent. It panics when the name is
// already bound to a different metric type — a programming error at
// wiring time.
func lookup[T any](r *Registry, name, help string, mk func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		t, ok := v.(*T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, v))
		}
		return t
	}
	t := mk()
	r.vars[name] = t
	r.help[name] = help
	return t
}

// Counter returns the counter under name, creating it if needed with
// help, one line of plain text saying what it counts: the exposition's
// # HELP text.
func (r *Registry) Counter(name, help string) *Counter {
	return lookup(r, name, help, func() *Counter { return new(Counter) })
}

// Gauge returns the gauge under name, creating it if needed with help.
func (r *Registry) Gauge(name, help string) *Gauge {
	return lookup(r, name, help, func() *Gauge { return new(Gauge) })
}

// Histogram returns the histogram under name, creating it if needed
// with help.
func (r *Registry) Histogram(name, help string) *Histogram {
	return lookup(r, name, help, func() *Histogram { return new(Histogram) })
}

// names returns the registered names, sorted.
func (r *Registry) names() []string {
	names := make([]string, 0, len(r.vars))
	for n := range r.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
