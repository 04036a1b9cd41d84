// Package sharded implements a sharded heap: the address space is
// partitioned into S equal shards, each owned by an independent
// sub-manager with its own free-space index. Manager adapts the shard
// set to sim.Manager, so the deterministic engine can drive any
// registered memory-management policy over a sharded address space
// (Config.Shards selects S; shards=1 is byte-identical to the
// unsharded policy).
//
// Compaction stays shard-local: a shard's sub-manager only ever moves
// objects within its own address range (see DESIGN.md §12).
package sharded

import (
	"fmt"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/mm/fits"
	"compaction/internal/mm/segregated"
	"compaction/internal/mm/tlsf"
	"compaction/internal/obs"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// Manager drives S independent sub-managers, one per shard, behind the
// ordinary sim.Manager interface. Object IDs pick the home shard round
// robin; allocations the home shard cannot satisfy fall back to the
// other shards in deterministic order. Every address the sub-managers
// see is shard-local ([0, shardCap)); the Manager translates to and
// from global addresses, including through the Mover during
// compaction, so no sub-manager can place or move anything outside its
// own shard.
type Manager struct {
	name    string
	factory func() sim.Manager

	cfg      sim.Config
	shardCap word.Size
	subs     []sim.Manager
	movers   []shardMover
	rcs      []sim.RoundCompactor // non-nil where the sub compacts at round start
	tracer   obs.Tracer
}

var (
	_ sim.Manager        = (*Manager)(nil)
	_ sim.RoundCompactor = (*Manager)(nil)
	_ obs.TracerSetter   = (*Manager)(nil)
)

// New returns a sharded manager that builds its sub-managers with
// factory. The shard count is taken from Config.Shards at Reset time
// (0 and 1 both mean a single shard).
func New(name string, factory func() sim.Manager) *Manager {
	return &Manager{name: name, factory: factory}
}

// Wrap shards a manager registered in the mm registry under its name,
// e.g. Wrap("first-fit") yields "sharded-first-fit". It fails when the
// name is unknown.
func Wrap(inner string) (*Manager, error) {
	if _, err := mm.New(inner); err != nil {
		return nil, fmt.Errorf("sharded: cannot wrap: %w", err)
	}
	return New("sharded-"+inner, func() sim.Manager {
		m, err := mm.New(inner)
		if err != nil {
			panic(fmt.Sprintf("sharded: inner manager %q vanished: %v", inner, err))
		}
		return m
	}), nil
}

// Name implements sim.Manager.
func (m *Manager) Name() string { return m.name }

// SetTracer implements obs.TracerSetter by forwarding to every
// sub-manager that accepts a tracer. The setting survives Reset.
func (m *Manager) SetTracer(t obs.Tracer) {
	m.tracer = t
	for _, sub := range m.subs {
		if ts, ok := sub.(obs.TracerSetter); ok {
			ts.SetTracer(t)
		}
	}
}

// Reset implements sim.Manager. It carves the heap into
// Config.Shards equal shards and resets one sub-manager per shard
// with a shard-sized capacity.
func (m *Manager) Reset(cfg sim.Config) {
	if cfg.Capacity == 0 {
		cfg.Capacity = cfg.M * sim.DefaultCapacityFactor
	}
	s := cfg.Shards
	if s < 1 {
		s = 1
	}
	if cfg.Capacity%word.Size(s) != 0 {
		panic(fmt.Sprintf("sharded: capacity %d does not divide into %d shards", cfg.Capacity, s))
	}
	m.cfg = cfg
	m.shardCap = cfg.Capacity / word.Size(s)
	if len(m.subs) != s {
		m.subs = make([]sim.Manager, s)
		m.movers = make([]shardMover, s)
		m.rcs = make([]sim.RoundCompactor, s)
		for i := range m.subs {
			m.subs[i] = m.factory()
			if ts, ok := m.subs[i].(obs.TracerSetter); ok && m.tracer != nil {
				ts.SetTracer(m.tracer)
			}
		}
	}
	sub := cfg
	sub.Capacity = m.shardCap
	sub.Shards = 0
	for i := range m.subs {
		m.subs[i].Reset(sub)
		m.movers[i].base = word.Addr(i) * word.Addr(m.shardCap)
		m.rcs[i], _ = m.subs[i].(sim.RoundCompactor)
	}
}

// homeShard picks the deterministic home shard for an object: the
// engine hands out sequential IDs, so consecutive allocations spread
// round robin across shards.
//
//compactlint:noalloc
func (m *Manager) homeShard(id heap.ObjectID) int {
	return int(id % heap.ObjectID(len(m.subs)))
}

// Allocate implements sim.Manager: it tries the home shard first and
// falls back to the remaining shards in deterministic order. The
// returned address is global.
//
//compactlint:noalloc
func (m *Manager) Allocate(id heap.ObjectID, size word.Size, mv sim.Mover) (word.Addr, error) {
	s := len(m.subs)
	home := m.homeShard(id)
	var firstErr error
	for k := 0; k < s; k++ {
		i := (home + k) % s
		m.movers[i].mv = mv
		addr, err := m.subs[i].Allocate(id, size, &m.movers[i])
		m.movers[i].mv = nil
		if err == nil {
			if addr < 0 || addr+size > m.shardCap {
				return 0, fmt.Errorf("sharded: shard %d placed %d words at local %d outside [0, %d)",
					i, size, addr, m.shardCap)
			}
			return m.movers[i].base + addr, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return 0, fmt.Errorf("sharded: no shard of %d could place %d words: %w", s, size, firstErr)
}

// Free implements sim.Manager, routing by the owning shard of the
// span's address.
//
//compactlint:noalloc
func (m *Manager) Free(id heap.ObjectID, s heap.Span) {
	i := int(s.Addr / word.Addr(m.shardCap))
	if i < 0 || i >= len(m.subs) {
		panic(fmt.Sprintf("sharded: free of %v outside the heap", s))
	}
	local := heap.Span{Addr: s.Addr - m.movers[i].base, Size: s.Size}
	if local.End() > m.shardCap {
		panic(fmt.Sprintf("sharded: free of %v spans the boundary of shard %d", s, i))
	}
	m.subs[i].Free(id, local)
}

// StartRound implements sim.RoundCompactor by forwarding the round
// start to every sub-manager that compacts, each behind its own
// address-translating mover. Compaction budget is the engine's global
// ledger, exactly as for an unsharded manager; shards draw from it in
// deterministic shard order.
//
//compactlint:noalloc
func (m *Manager) StartRound(mv sim.Mover) {
	for i, rc := range m.rcs {
		if rc != nil {
			m.movers[i].mv = mv
			rc.StartRound(&m.movers[i])
			m.movers[i].mv = nil
		}
	}
}

// shardMover translates between a shard's local address space and the
// engine's global one: sub-managers move to local destinations and
// look up local spans, the engine sees global addresses. With a single
// shard the translation is the identity, which is what makes shards=1
// byte-identical to the unsharded policy.
type shardMover struct {
	mv   sim.Mover
	base word.Addr
}

//compactlint:noalloc
func (s *shardMover) Move(id heap.ObjectID, to word.Addr) (bool, error) {
	return s.mv.Move(id, to+s.base)
}

//compactlint:noalloc
func (s *shardMover) Remaining() word.Size { return s.mv.Remaining() }

//compactlint:noalloc
func (s *shardMover) Lookup(id heap.ObjectID) (heap.Span, bool) {
	sp, ok := s.mv.Lookup(id)
	if ok {
		sp.Addr -= s.base
	}
	return sp, ok
}

// Register registers a sharded wrapper in the mm registry: each
// instance builds its sub-managers with factory and reads the shard
// count from Config.Shards.
func Register(name string, factory func() sim.Manager) {
	mm.Register(name, func() sim.Manager { return New(name, factory) })
}

func init() {
	Register("sharded-first-fit", func() sim.Manager { return fits.New(fits.FirstFit) })
	Register("sharded-segregated", func() sim.Manager { return segregated.New() })
	Register("sharded-tlsf", func() sim.Manager { return tlsf.New() })
}
