// Package threshold implements a density-threshold partial compactor
// in the style of region-evacuating collectors (Garbage-First,
// Metronome, the Compressor): the heap is viewed as fixed-size chunks,
// and chunks whose live density falls below a threshold are evacuated
// — objects are moved into holes elsewhere — whenever the compaction
// budget permits. Allocation is best-fit.
//
// This is the natural "practical" c-partial manager the paper's lower
// bound speaks to: it spends its 1/c budget where the paper says a
// manager must (sparse chunks), and the adversary P_F is designed to
// make exactly this strategy unprofitable by keeping every chunk's
// density above 2^-ℓ > 1/c.
package threshold

import (
	"sort"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// maxDensity is the highest live density at which a chunk is still
// considered worth evacuating.
const maxDensity = 0.25

// Manager is the density-threshold evacuating compactor.
type Manager struct {
	mm.Base
	// scanBuf is the reused address-ordered object buffer for scans.
	scanBuf []heap.Object
	// chunkSize is the evacuation granule: four times the largest
	// object (rounded up to a power of two), so any object intersects
	// at most two chunks.
	chunkSize word.Size
	// freedSinceScan accumulates freed words to pace evacuation scans.
	freedSinceScan word.Size
}

var (
	_ sim.Manager        = (*Manager)(nil)
	_ sim.RoundCompactor = (*Manager)(nil)
)

// New returns an empty manager.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "threshold" }

// Reset implements sim.Manager.
func (m *Manager) Reset(cfg sim.Config) {
	m.Base.Reset(cfg)
	m.chunkSize = word.RoundUpPow2(cfg.N) * 4
	m.freedSinceScan = 0
}

// Free implements sim.Manager.
func (m *Manager) Free(id heap.ObjectID, s heap.Span) {
	m.freedSinceScan += s.Size
	m.Base.Free(id, s)
}

// Allocate implements sim.Manager (best-fit placement).
func (m *Manager) Allocate(id heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	addr, err := m.FS.AllocBestFit(size)
	if err != nil {
		return 0, err
	}
	m.Record(id, heap.Span{Addr: addr, Size: size})
	return addr, nil
}

// StartRound implements sim.RoundCompactor: scan for sparse chunks
// once enough freeing has happened, and evacuate the sparsest ones
// while the budget lasts.
func (m *Manager) StartRound(mv sim.Mover) {
	if m.freedSinceScan < m.chunkSize || mv.Remaining() == 0 {
		return
	}
	m.freedSinceScan = 0

	type chunkInfo struct {
		index int64
		live  word.Size
		objs  []heap.Object
	}
	chunks := make(map[int64]*chunkInfo)
	m.scanBuf = m.AppendObjectsByAddr(m.scanBuf)
	for _, o := range m.scanBuf {
		first := word.ChunkIndex(o.Span.Addr, m.chunkSize)
		last := word.ChunkIndex(o.Span.End()-1, m.chunkSize)
		for ci := first; ci <= last; ci++ {
			info := chunks[ci]
			if info == nil {
				info = &chunkInfo{index: ci}
				chunks[ci] = info
			}
			// Words of o inside chunk ci.
			lo, hi := o.Span.Addr, o.Span.End()
			if cs := ci * m.chunkSize; cs > lo {
				lo = cs
			}
			if ce := (ci + 1) * m.chunkSize; ce < hi {
				hi = ce
			}
			info.live += hi - lo
			info.objs = append(info.objs, o)
		}
	}

	var sparse []*chunkInfo
	limit := word.Size(float64(m.chunkSize) * maxDensity)
	for _, info := range chunks {
		if info.live > 0 && info.live <= limit {
			sparse = append(sparse, info)
		}
	}
	// Sparsest first: cheapest evacuations buy the most reusable space.
	sort.Slice(sparse, func(i, j int) bool {
		if sparse[i].live != sparse[j].live {
			return sparse[i].live < sparse[j].live
		}
		return sparse[i].index < sparse[j].index
	})

	evacuated := make(map[heap.ObjectID]bool)
	for _, info := range sparse {
		for _, o := range info.objs {
			if evacuated[o.ID] {
				continue
			}
			cur, ok := m.Objs.Get(o.ID)
			if !ok {
				continue // moved-and-freed earlier this scan
			}
			if mv.Remaining() < cur.Size {
				return
			}
			dst, ok := m.findDestination(cur.Size, info.index)
			if !ok {
				continue
			}
			if _, err := m.MoveObject(mv, o.ID, dst); err != nil {
				return // budget or engine refusal: stop compacting
			}
			evacuated[o.ID] = true
		}
	}
}

// findDestination returns a best-fit placement outside the chunk being
// evacuated.
func (m *Manager) findDestination(size word.Size, avoidChunk int64) (word.Addr, bool) {
	g, ok := m.FS.PeekBestFit(size)
	if !ok {
		return 0, false
	}
	if word.ChunkIndex(g.Addr, m.chunkSize) == avoidChunk {
		// The best hole is inside the chunk we are clearing; placing
		// there would be self-defeating. Take the first fit elsewhere.
		var found word.Addr
		ok = false
		m.FS.Gaps(func(s heap.Span) bool {
			if s.Size >= size && word.ChunkIndex(s.Addr, m.chunkSize) != avoidChunk {
				found, ok = s.Addr, true
				return false
			}
			return true
		})
		return found, ok
	}
	return g.Addr, true
}

func init() {
	mm.Register("threshold", func() sim.Manager { return New() })
}
