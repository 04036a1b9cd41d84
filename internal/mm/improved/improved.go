// Package improved implements a c-partial manager in the spirit of
// Theorem 2 of Cohen & Petrank (PLDI 2013): a Robson-style size-classed
// allocator that spends its limited compaction budget shrinking the
// heap extent.
//
// The exact construction of the paper's upper-bound manager appears
// only in the full version, which is not available; this package is a
// documented reconstruction (see DESIGN.md §5). Its ingredients follow
// the theorem's structure:
//
//   - placement is aligned first-fit, so an object of class 2^i sits at
//     a 2^i-aligned address — the discipline Robson's bound analyses;
//   - whenever compaction budget is available, the manager relocates
//     the highest-addressed objects into the lowest aligned holes,
//     strictly reducing the heap extent (incremental compaction).
//
// We validate the manager empirically (it must respect the c-partial
// budget and should beat the non-moving allocators against the
// adversaries); we do not claim it meets the Theorem 2 formula, which
// is computed separately in internal/bounds.
package improved

import (
	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// Manager is the reconstructed Theorem-2-style partial compactor.
type Manager struct {
	mm.Base
	// scanBuf is the reused address-ordered object buffer for scans.
	scanBuf []heap.Object
}

var (
	_ sim.Manager        = (*Manager)(nil)
	_ sim.RoundCompactor = (*Manager)(nil)
)

// New returns an empty manager.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "improved" }

// alignFor returns the placement alignment for a request: the largest
// power of two not exceeding the size.
func alignFor(size word.Size) word.Size { return word.RoundDownPow2(size) }

// Allocate implements sim.Manager with aligned first-fit placement.
func (m *Manager) Allocate(id heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	addr, err := m.FS.AllocAlignedFirstFit(size, alignFor(size))
	if err == heap.ErrNoFit {
		addr, err = m.FS.AllocFirstFit(size)
	}
	if err != nil {
		return 0, err
	}
	m.Record(id, heap.Span{Addr: addr, Size: size})
	return addr, nil
}

// StartRound implements sim.RoundCompactor: move top objects downward
// into aligned holes while the budget lasts and progress is made.
func (m *Manager) StartRound(mv sim.Mover) {
	if mv.Remaining() == 0 {
		return
	}
	m.scanBuf = m.AppendObjectsByAddr(m.scanBuf)
	objs := m.scanBuf
	for i := len(objs) - 1; i >= 0; i-- {
		o := objs[i]
		cur, ok := m.Objs.Get(o.ID)
		if !ok {
			continue
		}
		if mv.Remaining() < cur.Size {
			return
		}
		dst, ok := m.FS.PeekAlignedFirstFit(cur.Size, alignFor(cur.Size))
		if !ok || dst >= cur.Addr {
			// No strictly lower aligned hole for this object; a smaller
			// object further down may still fit somewhere, so keep
			// sweeping.
			continue
		}
		if _, err := m.MoveObject(mv, o.ID, dst); err != nil {
			return
		}
	}
}

func init() {
	mm.Register("improved", func() sim.Manager { return New() })
}
