// Package fits implements the classical non-moving free-list
// allocation policies: first-fit, best-fit, next-fit, worst-fit, and
// an aligned first-fit that places each object at an address aligned
// to its size class (the placement discipline Robson's analysis and
// the paper's chunk arguments are phrased against).
//
// These managers never compact, so they are the subjects of Robson's
// classical bounds and serve as the non-moving baselines for the
// adversary experiments.
package fits

import (
	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// Policy selects the placement rule of a Manager.
type Policy int

// The supported placement policies.
const (
	FirstFit Policy = iota
	BestFit
	NextFit
	WorstFit
	AlignedFirstFit
)

func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case NextFit:
		return "next-fit"
	case WorstFit:
		return "worst-fit"
	case AlignedFirstFit:
		return "aligned-first-fit"
	default:
		return "unknown-fit"
	}
}

// Manager is a non-moving free-list manager with a fixed policy.
type Manager struct {
	mm.Base
	policy Policy
	cursor word.Addr // next-fit roving pointer
}

var _ sim.Manager = (*Manager)(nil)

// New returns a manager with the given placement policy.
func New(policy Policy) *Manager {
	return &Manager{policy: policy}
}

// Name implements sim.Manager.
func (m *Manager) Name() string { return m.policy.String() }

// Reset implements sim.Manager.
func (m *Manager) Reset(cfg sim.Config) {
	m.Base.Reset(cfg)
	m.cursor = 0
}

// Allocate implements sim.Manager.
func (m *Manager) Allocate(_ heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	var (
		addr word.Addr
		err  error
	)
	switch m.policy {
	case FirstFit:
		addr, err = m.FS.AllocFirstFit(size)
	case BestFit:
		addr, err = m.FS.AllocBestFit(size)
	case NextFit:
		addr, err = m.FS.AllocNextFit(size, m.cursor)
		if err == nil {
			m.cursor = addr + size
		}
	case WorstFit:
		addr, err = m.FS.AllocWorstFit(size)
	case AlignedFirstFit:
		addr, err = m.FS.AllocAlignedFirstFit(size, word.RoundDownPow2(size))
		if err == heap.ErrNoFit {
			// Fall back to unaligned placement rather than fail.
			addr, err = m.FS.AllocFirstFit(size)
		}
	}
	if err != nil {
		return 0, err
	}
	return addr, nil
}

func init() {
	mm.Register("first-fit", func() sim.Manager { return New(FirstFit) })
	mm.Register("best-fit", func() sim.Manager { return New(BestFit) })
	mm.Register("next-fit", func() sim.Manager { return New(NextFit) })
	mm.Register("worst-fit", func() sim.Manager { return New(WorstFit) })
	mm.Register("aligned-first-fit", func() sim.Manager { return New(AlignedFirstFit) })
}
