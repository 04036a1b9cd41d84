package heapscope

import (
	"io"
	"strconv"
)

// The snapshot artifact schema, version 1. Encoding is hand-rolled and
// byte-deterministic: fixed field order, integers only, no wall clock
// — identical runs serialize to identical bytes, which the committed
// golden (testdata/heatmap.golden.json) and the service's
// resumed-job-equality test both pin.
//
//	{"v":1,"shards":S,"width":W,
//	 "tiers":[{"scale":1,"entries":[E,...]},
//	          {"scale":10,...},{"scale":100,...}]}
//
// Each entry E covers a window of samples (1, 10 or 100):
//
//	{"r0":F,"r1":L,"n":N,"hs":[min,max,sum],"live":[min,max,sum],
//	 "shards":[{"live":A,"free":A,"largest":A,"iv":A,
//	            "fs":[[class,count],...],"heat":[c0,...,cW-1]}]}
//
// where A is a [min,max,sum] aggregate over the window (mean =
// sum/n), "fs" is the free-interval census as sparse
// [pow2-class, count] pairs (class as in obs.Pow2Bucket: sizes in
// [2^(c-1), 2^c - 1]), and "heat" holds W occupancy cells, each the
// window mean of 0..255 (255 = every word in the cell's address range
// live). Entries are oldest-first within each tier.

// AppendJSON appends the current store as one JSON document.
func (s *Sampler) AppendJSON(dst []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst = append(dst, `{"v":1,"shards":`...)
	dst = strconv.AppendInt(dst, int64(s.cfg.Shards), 10)
	dst = append(dst, `,"width":`...)
	dst = strconv.AppendInt(dst, int64(s.cfg.Width), 10)
	dst = append(dst, `,"tiers":[`...)
	scale := 1
	for t := range s.tiers {
		if t > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"scale":`...)
		dst = strconv.AppendInt(dst, int64(scale), 10)
		dst = append(dst, `,"entries":[`...)
		r := &s.tiers[t]
		first := max(r.n-s.cfg.RawCap, 0)
		for k := first; k < r.n; k++ {
			if k > first {
				dst = append(dst, ',')
			}
			dst = appendEntry(dst, &r.entries[k%s.cfg.RawCap])
		}
		dst = append(dst, ']', '}')
		scale *= foldEvery
	}
	return append(dst, ']', '}')
}

// WriteJSON writes AppendJSON's document to w.
func (s *Sampler) WriteJSON(w io.Writer) error {
	_, err := w.Write(s.AppendJSON(nil))
	return err
}

func appendEntry(dst []byte, e *entry) []byte {
	dst = append(dst, `{"r0":`...)
	dst = strconv.AppendInt(dst, int64(e.r0), 10)
	dst = append(dst, `,"r1":`...)
	dst = strconv.AppendInt(dst, int64(e.r1), 10)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(e.samples), 10)
	dst = appendAgg(append(dst, `,"hs":`...), &e.hs)
	dst = appendAgg(append(dst, `,"live":`...), &e.liv)
	dst = append(dst, `,"shards":[`...)
	for i := range e.shards {
		if i > 0 {
			dst = append(dst, ',')
		}
		sh := &e.shards[i]
		dst = appendAgg(append(dst, `{"live":`...), &sh.live)
		dst = appendAgg(append(dst, `,"free":`...), &sh.free)
		dst = appendAgg(append(dst, `,"largest":`...), &sh.largest)
		dst = appendAgg(append(dst, `,"iv":`...), &sh.intervals)
		dst = append(dst, `,"fs":[`...)
		firstFS := true
		for class, count := range sh.freeSizes {
			if count == 0 {
				continue
			}
			if !firstFS {
				dst = append(dst, ',')
			}
			firstFS = false
			dst = append(dst, '[')
			dst = strconv.AppendInt(dst, int64(class), 10)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, count, 10)
			dst = append(dst, ']')
		}
		dst = append(dst, `],"heat":[`...)
		for j, h := range sh.heat {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(h)/int64(e.samples), 10)
		}
		dst = append(dst, ']', '}')
	}
	return append(dst, ']', '}')
}

func appendAgg(dst []byte, a *agg) []byte {
	dst = append(dst, '[')
	dst = strconv.AppendInt(dst, a.min, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, a.max, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, a.sum, 10)
	return append(dst, ']')
}
