// Package segregated implements a segregated-storage (size-class)
// allocator: requests are rounded up to power-of-two classes, each
// class recycles its own freed blocks, and classes grow by carving
// runs of blocks from a shared arena. Blocks never change class, which
// makes the allocator fast and simple — and exhibits exactly the kind
// of fragmentation under shifting size distributions that the paper's
// adversaries exploit.
package segregated

import (
	"fmt"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// DefaultRunBlocks is how many blocks a class carves from the arena at
// a time (capped so runs never exceed DefaultMaxRun words).
const (
	DefaultRunBlocks = 16
	DefaultMaxRun    = 1 << 16
)

// Manager is a non-moving segregated-fit allocator.
type Manager struct {
	arena *heap.FreeSpace
	// free block addresses per class (class = log2 of block size)
	free [][]word.Addr
}

var _ sim.Manager = (*Manager)(nil)

// New returns an empty segregated manager.
func New() *Manager { return &Manager{} }

// Name implements sim.Manager.
func (m *Manager) Name() string { return "segregated" }

// Reset implements sim.Manager.
func (m *Manager) Reset(cfg sim.Config) {
	m.arena = heap.NewFreeSpace(cfg.Capacity)
	classes := word.CeilLog2(cfg.N) + 1
	m.free = make([][]word.Addr, classes)
}

// Allocate implements sim.Manager.
func (m *Manager) Allocate(_ heap.ObjectID, size word.Size, _ sim.Mover) (word.Addr, error) {
	class := word.CeilLog2(size)
	if class >= len(m.free) {
		return 0, fmt.Errorf("segregated: request %d exceeds class table", size)
	}
	if len(m.free[class]) == 0 {
		if err := m.grow(class); err != nil {
			return 0, err
		}
	}
	list := m.free[class]
	addr := list[len(list)-1]
	m.free[class] = list[:len(list)-1]
	return addr, nil
}

// grow carves a fresh run of blocks for the class from the arena.
func (m *Manager) grow(class int) error {
	blockSize := word.Pow2(class)
	blocks := word.Size(DefaultRunBlocks)
	if blockSize*blocks > DefaultMaxRun {
		blocks = DefaultMaxRun / blockSize
	}
	if blocks < 1 {
		blocks = 1
	}
	var (
		addr word.Addr
		err  error
	)
	for blocks >= 1 {
		addr, err = m.arena.AllocFirstFit(blockSize * blocks)
		if err == nil {
			break
		}
		blocks /= 2 // shrink the run until it fits
	}
	if err != nil {
		return heap.ErrNoFit
	}
	for b := word.Size(0); b < blocks; b++ {
		m.free[class] = append(m.free[class], addr+b*blockSize)
	}
	return nil
}

// Free implements sim.Manager: the block returns to its class list,
// class ⌈log2 size⌉, and stays dedicated to the class.
func (m *Manager) Free(_ heap.ObjectID, s heap.Span) {
	class := word.CeilLog2(s.Size)
	m.free[class] = append(m.free[class], s.Addr)
}

// ClassFreeBlocks reports the number of cached free blocks in each
// non-empty class, for tests and stats.
func (m *Manager) ClassFreeBlocks() map[int]int {
	out := make(map[int]int)
	for c, list := range m.free {
		if len(list) > 0 {
			out[c] = len(list)
		}
	}
	return out
}

func init() {
	mm.Register("segregated", func() sim.Manager { return New() })
}
