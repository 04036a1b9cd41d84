package obs

import (
	"math"
	"testing"
)

// These tests pin the bucket → value-range table documented at
// histBuckets: every boundary value (zero, one, exact powers of two,
// MaxInt64 overflow). Change the bucketing scheme and these fail
// before any golden does.

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
		upper  int64
	}{
		{math.MinInt64, 0, 0},
		{-1, 0, 0},
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 2, 3},
		{4, 3, 7},
		{7, 3, 7},
		{8, 4, 15},
		// Exact powers of two sit at the BOTTOM of bucket k+1, so the
		// upper edge over-reports by just under 2× but never under.
		{1 << 10, 11, 1<<11 - 1},
		{1<<10 - 1, 10, 1<<10 - 1},
		{1 << 31, 32, 1<<32 - 1},
		{1 << 61, 62, 1<<62 - 1},
		{1<<62 - 1, 62, 1<<62 - 1},
		// Bucket 63 is the overflow bucket: [2^62, MaxInt64] with
		// upper edge MaxInt64 (2^63 − 1 can't be formed by the shift).
		{1 << 62, 63, math.MaxInt64},
		{math.MaxInt64, 63, math.MaxInt64},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.v); got != tc.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.bucket)
		}
		if got := bucketUpper(tc.bucket); got != tc.upper {
			t.Errorf("bucketUpper(%d) = %d, want %d", tc.bucket, got, tc.upper)
		}
		// The exported aliases must agree with the internal mapping.
		if got := Pow2Bucket(tc.v); got != tc.bucket {
			t.Errorf("Pow2Bucket(%d) = %d, want %d", tc.v, got, tc.bucket)
		}
		if got := Pow2BucketUpper(tc.bucket); got != tc.upper {
			t.Errorf("Pow2BucketUpper(%d) = %d, want %d", tc.bucket, got, tc.upper)
		}
	}
	if Pow2Buckets != histBuckets {
		t.Fatalf("Pow2Buckets = %d, want %d", Pow2Buckets, histBuckets)
	}
	// Indices never escape the array: bits.Len64 of any positive int64
	// is at most 63.
	if b := bucketOf(math.MaxInt64); b >= histBuckets {
		t.Fatalf("bucketOf(MaxInt64) = %d, out of range", b)
	}
}

func TestBucketUpperIsTight(t *testing.T) {
	// For every bucket, the upper edge itself must map back into that
	// bucket, and upper+1 into the next — i.e. the edges really are the
	// largest member of each bucket.
	for i := 0; i < histBuckets-1; i++ {
		u := bucketUpper(i)
		if got := bucketOf(u); got != i && !(i == 0 && u == 0) {
			t.Errorf("bucketOf(bucketUpper(%d)=%d) = %d", i, u, got)
		}
		if got := bucketOf(u + 1); got != i+1 {
			t.Errorf("bucketOf(bucketUpper(%d)+1=%d) = %d, want %d", i, u+1, got, i+1)
		}
	}
	if got := bucketOf(bucketUpper(histBuckets - 1)); got != histBuckets-1 {
		t.Errorf("MaxInt64 maps to bucket %d, want %d", got, histBuckets-1)
	}
}

func TestHistogramObserveBoundaries(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(1 << 20)
	h.Observe(math.MaxInt64)
	if n := bucketTotal(&h); n != 4 {
		t.Fatalf("count = %d, want 4", n)
	}
	for _, tc := range []struct {
		bucket int
		want   int64
	}{{0, 1}, {1, 1}, {21, 1}, {63, 1}, {2, 0}, {62, 0}} {
		if got := h.buckets[tc.bucket].Load(); got != tc.want {
			t.Errorf("bucket %d holds %d, want %d", tc.bucket, got, tc.want)
		}
	}
}
