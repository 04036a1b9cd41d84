package sweep

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"sort"
	"testing"

	"compaction/internal/catalog"
	"compaction/internal/obs"
	"compaction/internal/profile"
	"compaction/internal/sim"
)

// digestTracer folds a cell's alloc, free and move events — kind,
// round, object ID, source, destination and size — into an FNV-64a
// digest: two runs with equal digests placed every object alike.
type digestTracer struct {
	h      hash.Hash64
	events int
}

func (d *digestTracer) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.EvAlloc, obs.EvFree, obs.EvMove:
	default:
		return
	}
	var b [48]byte
	for i, v := range [...]int64{int64(ev.Kind), int64(ev.Round), int64(ev.ID), int64(ev.From), int64(ev.Addr), int64(ev.Size)} {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	d.h.Write(b[:])
	d.events++
}

// TestSweepDeterminism is the dynamic twin of the determinism
// analyzer: every catalog program and canned profile, against
// first-fit and threshold, runs twice in one process through the
// sweep, and each cell's two event digests must match. A program
// whose choices follow map order (or a wall clock, or global rand
// state) places or frees differently from one run to the next.
func TestSweepDeterminism(t *testing.T) {
	names := catalog.Names()
	var canned []string
	for name := range profile.Canned() {
		canned = append(canned, "profile:"+name)
	}
	sort.Strings(canned)
	names = append(names, canned...)

	var cells []Cell
	for _, name := range names {
		mk, pow2, err := catalog.New(name, catalog.Params{Seed: 7, Rounds: 50})
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{M: 1 << 10, N: 1 << 4, Pow2Only: pow2, MaxRounds: 400}
		cells = append(cells, Grid(cfg, []int64{16}, []string{"first-fit", "threshold"}, name, mk)...)
	}
	run := func() []*digestTracer {
		digests := make([]*digestTracer, len(cells))
		for i := range digests {
			digests[i] = &digestTracer{h: fnv.New64a()}
		}
		outs, err := RunOpts(context.Background(), cells, Options{
			Parallelism:  2,
			EngineTracer: func(cell int) obs.Tracer { return digests[cell] },
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			if o.Err != nil {
				t.Fatalf("%s/%s: %v", cells[i].Label, cells[i].Manager, o.Err)
			}
		}
		return digests
	}
	first, second := run(), run()
	for i, c := range cells {
		a, b := first[i], second[i]
		if a.events == 0 {
			t.Errorf("%s/%s: no alloc, free or move events", c.Label, c.Manager)
		}
		if a.events != b.events || a.h.Sum64() != b.h.Sum64() {
			t.Errorf("%s/%s: event digests differ between two runs: %d events %016x, then %d events %016x",
				c.Label, c.Manager, a.events, a.h.Sum64(), b.events, b.h.Sum64())
		}
	}
}
