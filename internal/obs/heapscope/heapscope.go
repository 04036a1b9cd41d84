// Package heapscope is a sampling heap introspector: attached to the
// engine's HeapHook, it turns the ground-truth occupancy bitmap into
// fragmentation telemetry — per-shard free-interval size histograms
// (obs.Histogram's pow2 buckets via obs.Pow2Bucket), largest free
// extent, and occupancy heatmap rows downsampled to a fixed width —
// stored in a multi-resolution ring time series (raw → 10× → 100×
// windows, each retaining min/max/sum so means never lie about
// spikes).
//
// The paper's bounds are statements about where the holes are: the
// waste HS/M that P_F forces exists as a population of free intervals
// too small or too scattered for the compaction budget to erase.
// heapscope makes that population visible while a run is in flight —
// over HTTP from compactd, or as an offline artifact from compactsim
// -heatmap-out — instead of as a single scalar after the fact.
//
// A sampler costs memory in proportion to the samples it has taken: a
// ring entry, with its per-shard histogram and heat row, is built the
// first time its ring reaches it, so a short run's sampler holds the
// entries it wrote, not the 3×RawCap of a full one. Once its rings are
// full, the warm sampling path (Sample and everything under it)
// allocates nothing — the scratch buffers and walk closures are built
// in New — so the engine's zero-alloc round loop stays pinned with
// sampling enabled (TestEngineRoundIsAllocFree measures it, the
// //compactlint:noalloc annotations prove it statically). Allocation
// happens only in New, in a ring's first pass, and in the JSON
// encoder.
package heapscope

import (
	"fmt"
	"math"
	"sync"

	"compaction/internal/heap"
	"compaction/internal/obs"
	"compaction/internal/word"
)

// DefaultEvery is the default sampling cadence in rounds, shared by
// the bench gate, compactsim -heatmap-every and the compactd spec
// default. Sampling cost is one O(extent/64) bitmap walk (twice), so
// every 16th round keeps the overhead of the whole sim suite under
// the 5% budget the bench gate watches.
const DefaultEvery = 16

// foldEvery is the downsampling fan-in between tiers: 10 raw samples
// fold into one mid entry, 10 mid entries into one coarse entry —
// the raw → 10× → 100× resolutions of the time-series store.
const foldEvery = 10

// tiers is the number of resolutions kept (raw, 10×, 100×).
const tiers = 3

// Config sizes a Sampler.
type Config struct {
	// Shards partitions the address space into equal ranges with
	// per-range statistics, matching the sharded heap's layout
	// (sim.Config.Shards). 0 or 1 means one shard spanning the heap.
	Shards int
	// Capacity is the total address-space size the shard ranges
	// partition; required when Shards > 1 (same divisibility rule as
	// sim.Config), ignored otherwise.
	Capacity word.Size
	// Width is the number of cells in each heatmap row; 0 means 64.
	Width int
	// RawCap is the raw ring's capacity in samples (the two coarser
	// rings use the same capacity, covering 10× and 100× the span);
	// 0 means 512. Values below foldEvery are rejected: a fold reads
	// the last 10 entries of the finer ring.
	RawCap int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Width == 0 {
		c.Width = 64
	}
	if c.RawCap == 0 {
		c.RawCap = 512
	}
	return c
}

// agg is a min/max/sum triple over a window of samples; the mean is
// sum divided by the entry's sample count, computed at encode time so
// stored state stays integral and byte-deterministic.
type agg struct {
	min, max, sum int64
}

// shardEntry is one shard's telemetry over one window.
type shardEntry struct {
	live, free, largest, intervals agg
	// freeSizes is the free-interval census, counts per pow2 size
	// class (obs.Pow2Bucket), summed over the window's samples.
	freeSizes []int64
	// heat holds per-cell occupancy, each sample contributing 0..255
	// (occupied words in the cell scaled by 255/cellWords), summed
	// over the window; the encoder divides by samples.
	heat []uint32
}

// entry is one window of the time series: a single sample in the raw
// tier, foldEvery^t samples in tier t.
type entry struct {
	r0, r1  int // first and last sampled round in the window
	samples int
	hs, liv agg
	shards  []shardEntry
}

// ring is an overwrite-oldest buffer of RawCap entries. Its entries
// are built as the ring first reaches them, so until it wraps it holds
// only the entries written.
type ring struct {
	entries []entry
	n       int // total entries ever written; slot i lives at i%RawCap
}

// Sampler captures heap snapshots into the multi-resolution store.
// All methods are safe for one sampling goroutine plus any number of
// concurrent readers (encoders): a mutex guards the rings, held only
// for the O(extent/64) walk at sampled rounds.
type Sampler struct {
	cfg      Config
	shardCap word.Size // address range per shard; MaxInt64 when 1 shard

	mu    sync.Mutex
	tiers [tiers]ring

	// Scratch for the in-flight sample, preallocated in New so the
	// warm path allocates only ring entries. statFn/heatFn are the two
	// bitmap-walk callbacks, built once — a fresh closure per Sample
	// would be one allocation per sample.
	cur    *entry
	extent []word.Addr // per-shard end of highest live word
	span   []word.Size // per-shard heat row span, set between passes
	stat   []shardScratch
	heatW  [][]int64 // per-shard per-cell occupied words
	statFn func(word.Addr, word.Size, bool) bool
	heatFn func(word.Addr, word.Size, bool) bool
}

type shardScratch struct {
	live, free, largest, intervals int64
}

// New validates cfg and returns a Sampler with its scratch buffers
// preallocated and its rings empty.
func New(cfg Config) (*Sampler, error) {
	cfg = cfg.withDefaults()
	if cfg.Width < 1 {
		return nil, fmt.Errorf("heapscope: width %d < 1", cfg.Width)
	}
	if cfg.RawCap < foldEvery {
		return nil, fmt.Errorf("heapscope: ring capacity %d < fold window %d", cfg.RawCap, foldEvery)
	}
	s := &Sampler{cfg: cfg, shardCap: math.MaxInt64}
	if cfg.Shards > 1 {
		if cfg.Capacity <= 0 || cfg.Capacity%word.Size(cfg.Shards) != 0 {
			return nil, fmt.Errorf("heapscope: capacity %d not divisible by %d shards", cfg.Capacity, cfg.Shards)
		}
		s.shardCap = cfg.Capacity / word.Size(cfg.Shards)
	}
	s.extent = make([]word.Addr, cfg.Shards)
	s.span = make([]word.Size, cfg.Shards)
	s.stat = make([]shardScratch, cfg.Shards)
	s.heatW = make([][]int64, cfg.Shards)
	for i := range s.heatW {
		s.heatW[i] = make([]int64, cfg.Width)
	}
	s.statFn = func(addr word.Addr, n word.Size, set bool) bool {
		s.statRun(addr, n, set)
		return true
	}
	s.heatFn = func(addr word.Addr, n word.Size, set bool) bool {
		s.heatRun(addr, n, set)
		return true
	}
	return s, nil
}

// Sample captures one snapshot of occ. Its signature matches
// sim.HeapHook, so installation is `e.HeapHook = sampler.Sample`.
// The warm path is allocation-free; see the package comment.
//
//compactlint:noalloc
func (s *Sampler) Sample(round int, occ *heap.Occupancy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hs := occ.HighWater()
	e := s.slot(0)
	resetEntry(e)
	e.r0, e.r1, e.samples = round, round, 1
	setAgg(&e.hs, int64(hs))
	setAgg(&e.liv, int64(occ.Live()))
	s.cur = e
	for i := range s.stat {
		s.stat[i] = shardScratch{}
		s.extent[i] = 0
	}
	// Pass 1: free-interval census, largest gap, live/free totals and
	// per-shard extents, off the ground-truth bitmap. [0, hs) is the
	// paper's heap: everything between the live extent and the
	// high-water mark counts as free space the manager owns.
	occ.Runs(hs, s.statFn)
	for i := range s.stat {
		sh := &e.shards[i]
		setAgg(&sh.live, s.stat[i].live)
		setAgg(&sh.free, s.stat[i].free)
		setAgg(&sh.largest, s.stat[i].largest)
		setAgg(&sh.intervals, s.stat[i].intervals)
	}
	// Pass 2: heat rows. Each shard's row spans its own occupied
	// prefix — the whole heap [0, hs) for a single shard, the
	// shard-local extent otherwise — so rows stay information-dense
	// even when configured capacity dwarfs actual usage.
	for i := range s.span {
		if s.cfg.Shards <= 1 {
			s.span[i] = word.Size(hs)
		} else {
			base := word.Addr(i) * s.shardCap
			s.span[i] = word.Size(s.extent[i] - base)
		}
		clear(s.heatW[i])
	}
	occ.Runs(hs, s.heatFn)
	w := word.Size(s.cfg.Width)
	for i := range s.heatW {
		span := s.span[i]
		if span <= 0 {
			continue
		}
		sh := &e.shards[i]
		for j := range s.heatW[i] {
			cw := (span*word.Size(j+1))/w - (span*word.Size(j))/w
			if cw <= 0 {
				continue
			}
			sh.heat[j] = uint32(s.heatW[i][j] * 255 / cw)
		}
	}
	s.advance(0)
}

// statRun is the pass-1 walk body: one maximal run, split across
// shard boundaries.
//
//compactlint:noalloc
func (s *Sampler) statRun(addr word.Addr, n word.Size, set bool) {
	for n > 0 {
		si := s.shardOf(addr)
		take := min(n, word.Addr(si+1)*s.shardCap-addr)
		if take <= 0 { // beyond the last shard boundary; don't spin
			take = n
		}
		st := &s.stat[si]
		if set {
			st.live += take
			if end := addr + take; end > s.extent[si] {
				s.extent[si] = end
			}
		} else {
			st.free += take
			st.intervals++
			st.largest = max(st.largest, take)
			s.cur.shards[si].freeSizes[obs.Pow2Bucket(take)]++
		}
		addr += take
		n -= take
	}
}

// heatRun is the pass-2 walk body: occupied words distributed over
// the shard's heat cells.
//
//compactlint:noalloc
func (s *Sampler) heatRun(addr word.Addr, n word.Size, set bool) {
	if !set {
		return
	}
	w := word.Size(s.cfg.Width)
	for n > 0 {
		si := s.shardOf(addr)
		base := word.Addr(si) * s.shardCap
		take := min(n, base+s.shardCap-addr)
		if take <= 0 { // beyond the last shard boundary; don't spin
			take = n
		}
		span := s.span[si]
		if span > 0 {
			r0 := word.Size(addr - base)
			r1 := min(r0+take, span)
			for j := r0 * w / span; r0 < r1; j++ {
				cellEnd := span * (j + 1) / w
				over := min(r1, cellEnd) - r0
				s.heatW[si][j] += over
				r0 += over
			}
		}
		addr += take
		n -= take
	}
}

//compactlint:noalloc
func (s *Sampler) shardOf(addr word.Addr) int {
	if s.cfg.Shards <= 1 {
		return 0
	}
	si := int(addr / s.shardCap)
	if si >= s.cfg.Shards {
		si = s.cfg.Shards - 1
	}
	return si
}

// slot returns the tier's next write slot without advancing it,
// building the slot's entry the first time the ring reaches it.
//
//compactlint:noalloc
func (s *Sampler) slot(t int) *entry {
	r := &s.tiers[t]
	i := r.n % s.cfg.RawCap
	if i == len(r.entries) {
		s.grow(r) //compactlint:allow noalloc a ring's first pass builds each entry once: at most 3×RawCap per sampler, none once the rings are full
	}
	return &r.entries[i]
}

// grow appends one zeroed entry, with a free-size histogram and a heat
// row per shard, to r.
func (s *Sampler) grow(r *ring) {
	shards := make([]shardEntry, s.cfg.Shards)
	for i := range shards {
		shards[i].freeSizes = make([]int64, obs.Pow2Buckets)
		shards[i].heat = make([]uint32, s.cfg.Width)
	}
	r.entries = append(r.entries, entry{shards: shards})
}

// advance commits the tier's write slot and cascades folds: every
// foldEvery entries of tier t collapse into one entry of tier t+1.
//
//compactlint:noalloc
func (s *Sampler) advance(t int) {
	s.tiers[t].n++
	if t+1 < tiers && s.tiers[t].n%foldEvery == 0 {
		s.fold(t)
	}
}

// fold merges the last foldEvery entries of tier t into tier t+1's
// next slot.
//
//compactlint:noalloc
func (s *Sampler) fold(t int) {
	dst := s.slot(t + 1)
	resetEntry(dst)
	r := &s.tiers[t]
	for k := r.n - foldEvery; k < r.n; k++ {
		src := &r.entries[k%s.cfg.RawCap]
		first := dst.samples == 0
		if first {
			dst.r0 = src.r0
		}
		dst.r1 = src.r1
		dst.samples += src.samples
		mergeAgg(&dst.hs, &src.hs, first)
		mergeAgg(&dst.liv, &src.liv, first)
		for si := range dst.shards {
			d, c := &dst.shards[si], &src.shards[si]
			mergeAgg(&d.live, &c.live, first)
			mergeAgg(&d.free, &c.free, first)
			mergeAgg(&d.largest, &c.largest, first)
			mergeAgg(&d.intervals, &c.intervals, first)
			for b := range d.freeSizes {
				d.freeSizes[b] += c.freeSizes[b]
			}
			for j := range d.heat {
				d.heat[j] += c.heat[j]
			}
		}
	}
	s.advance(t + 1)
}

//compactlint:noalloc
func resetEntry(e *entry) {
	e.r0, e.r1, e.samples = 0, 0, 0
	e.hs, e.liv = agg{}, agg{}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.live, sh.free, sh.largest, sh.intervals = agg{}, agg{}, agg{}, agg{}
		clear(sh.freeSizes)
		clear(sh.heat)
	}
}

//compactlint:noalloc
func setAgg(a *agg, v int64) {
	a.min, a.max, a.sum = v, v, v
}

//compactlint:noalloc
func mergeAgg(dst, src *agg, first bool) {
	if first {
		*dst = *src
		return
	}
	dst.min = min(dst.min, src.min)
	dst.max = max(dst.max, src.max)
	dst.sum += src.sum
}

// Stats is a flat summary of the most recent sample, aggregated over
// shards — the payload of compactd's /heapstats endpoint.
type Stats struct {
	Samples     int   `json:"samples"`
	Round       int   `json:"round"`
	HighWater   int64 `json:"high_water"`
	Live        int64 `json:"live"`
	Free        int64 `json:"free"`
	LargestFree int64 `json:"largest_free"`
	Intervals   int64 `json:"intervals"`
}

// Stats returns the latest raw sample's summary; the zero Stats when
// nothing has been sampled yet.
func (s *Sampler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &s.tiers[0]
	if r.n == 0 {
		return Stats{}
	}
	e := &r.entries[(r.n-1)%s.cfg.RawCap]
	st := Stats{Samples: r.n, Round: e.r1, HighWater: e.hs.sum, Live: e.liv.sum}
	for i := range e.shards {
		sh := &e.shards[i]
		st.Free += sh.free.sum
		st.Intervals += sh.intervals.sum
		st.LargestFree = max(st.LargestFree, sh.largest.sum)
	}
	return st
}
