package obs

import (
	"fmt"
	"io"
	"math"
)

// WritePrometheus dumps the registry in the Prometheus text
// exposition format, version 0.0.4, one family per registered metric
// in name order, each opened by its help text and its type:
//
//	# HELP sim_rounds Engine rounds completed.
//	# TYPE sim_rounds counter
//	sim_rounds 42
//
// Counters and gauges are single samples. Histograms expose the
// pow2-bucket state as a cumulative distribution — `name_bucket` with
// le="2^i − 1" upper edges (the histBuckets table), a le="+Inf"
// bucket, then `name_sum` and `name_count`:
//
//	# HELP sim_alloc_words Words per allocation.
//	# TYPE sim_alloc_words histogram
//	sim_alloc_words_bucket{le="1"} 3
//	sim_alloc_words_bucket{le="3"} 10
//	sim_alloc_words_bucket{le="+Inf"} 10
//	sim_alloc_words_sum 27
//	sim_alloc_words_count 10
//
// Registered names are sanitized to the Prometheus grammar (dots and
// other invalid runes become underscores: "sim.rounds" →
// "sim_rounds", "shard.3.live" → "shard_3_live"). Zero-count buckets
// are elided — lossless under cumulative semantics — and the le="0"
// edge appears whenever bucket 0 is populated, so non-positive
// observations stay visible. Output over the same registry state is
// byte-deterministic
// (fixed order, integer rendering), pinned by the committed golden in
// testdata/metrics.prom.golden.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.names() {
		p := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", p, r.help[name]); err != nil {
			return err
		}
		var err error
		switch v := r.vars[name].(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, v.Value())
		case *Gauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", p, p, v.Value())
		case *Histogram:
			err = writePromHistogram(w, p, v)
		default:
			err = fmt.Errorf("obs: unknown metric type %T", v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	// One coherent read of the bucket array; total is derived from it,
	// so the +Inf bucket always equals _count even when observations
	// land mid-write.
	top := -1
	var total int64
	var counts [histBuckets]int64
	for i := 0; i < histBuckets; i++ {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
		if counts[i] != 0 {
			top = i
		}
	}
	var cum int64
	for i := 0; i <= top; i++ {
		if counts[i] == 0 {
			// A zero-count bucket repeats the previous cumulative value;
			// eliding it is lossless and keeps 64-bucket histograms with
			// sparse tails readable.
			continue
		}
		cum += counts[i]
		le := bucketUpper(i)
		var err error
		if le == math.MaxInt64 {
			// Bucket 63 holds everything up to MaxInt64; its edge is
			// indistinguishable from +Inf at this resolution, so it is
			// folded into the +Inf bucket below.
			continue
		}
		if _, err = fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		name, total, name, h.Sum(), name, total)
	return err
}

// promName maps a registry name onto the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	b := []byte(name)
	for i, c := range b {
		ok := c == '_' || c == ':' ||
			c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c >= '0' && c <= '9' && i > 0
		if !ok {
			b[i] = '_'
		}
	}
	return string(b)
}
