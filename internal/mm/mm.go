// Package mm defines shared infrastructure for the memory managers of
// the simulation: a registry of manager factories and a Base type that
// handles the bookkeeping the free-list managers share (configuration,
// free-space index, and the compactors' scan list). The engine owns
// every placement and hands Free the span it recorded, so a manager
// keeps per-object state only where its own policy needs it.
//
// Concrete managers live in subpackages:
//
//	mm/fits        first-fit, best-fit, next-fit, worst-fit, aligned-fit
//	mm/buddy       binary buddy allocator
//	mm/segregated  size-class (slab) allocator
//	mm/tlsf        two-level segregated fit (Masmano et al. 2004)
//	mm/halffit     Half-Fit (Ogasawara 1995)
//	mm/bitmapff    bitmap first-fit with a summary tree over the bitmap
//	mm/rounding    power-of-two rounding adapter (Section 2.2)
//	mm/bpcompact   the (c+1)·M compacting manager of Bendersky & Petrank
//	mm/markcompact full sliding mark-compact (LISP-2 order)
//	mm/threshold   density-threshold chunk evacuator
//	mm/improved    Theorem-2-style size-classed partial compactor
//
// internal/heap/sharded additionally registers sharded-* wrappers that
// run any of the above over a partitioned address space (one sub-heap
// per Config.Shards shard).
package mm

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"compaction/internal/heap"
	"compaction/internal/obs"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// Factory constructs a fresh manager instance.
type Factory func() sim.Manager

var (
	regMu    sync.Mutex
	registry = make(map[string]Factory)
)

// Register adds a manager factory under a unique name. It panics on
// duplicates, which would indicate a programming error at init time.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("mm.Register: duplicate manager %q", name))
	}
	registry[name] = f
}

// New constructs the registered manager with the given name.
func New(name string) (sim.Manager, error) {
	regMu.Lock()
	f, ok := registry[name]
	if !ok {
		known := namesLocked()
		regMu.Unlock()
		return nil, fmt.Errorf("mm: unknown manager %q (known: %v)", name, known)
	}
	// Invoke the factory without the lock: wrapper managers construct
	// their inner manager through New as well.
	regMu.Unlock()
	return f(), nil
}

// Names returns the registered manager names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	return namesLocked()
}

func namesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Base carries the bookkeeping shared by the free-list managers: the
// run configuration, a free-space index over the heap, and the scan
// list of a compactor. Managers embed Base and implement Allocate.
// Free needs no record of its own: the engine hands it the span.
type Base struct {
	Cfg sim.Config
	FS  *heap.FreeSpace
	// Objs is the scan list of a compacting manager: the objects it
	// has placed (Record) and may move (MoveObject), by ID. Managers
	// that never move leave it empty. It is a paged dense SpanTable
	// (the engine hands out sequential IDs), which keeps the
	// record/free hot path off the map runtime entirely. Its pages
	// follow the live set, so a scan walks the pages of the live ID
	// window, not every ID ever placed; the walk is still in ID order,
	// so AppendObjectsByAddr sorts what it collects.
	Objs heap.SpanTable

	// tracer, when set, receives the manager-side events the engine
	// cannot see: move attempts that were refused before or by the
	// engine (budget exhaustion, occupied destination). Successful
	// moves are reported by the engine itself.
	tracer obs.Tracer
}

// SetTracer implements obs.TracerSetter. The setting survives Reset.
func (b *Base) SetTracer(t obs.Tracer) { b.tracer = t }

// rejectMove reports a refused move attempt. Base does not know the
// engine's round counter, so manager-side events carry Round == -1.
func (b *Base) rejectMove(id heap.ObjectID, from heap.Span, to word.Addr) {
	if b.tracer != nil {
		b.tracer.Emit(obs.Event{
			Kind: obs.EvMoveReject, Round: -1,
			ID: id, From: from.Addr, Addr: to, Size: from.Size,
		})
	}
}

// Reset implements the corresponding part of sim.Manager.
func (b *Base) Reset(cfg sim.Config) {
	b.Cfg = cfg
	b.FS = heap.NewFreeSpace(cfg.Capacity)
	b.Objs.Reset()
}

// Free implements sim.Manager by returning the object's words to the
// free space. A compactor's scan-list entry for the object, where one
// exists, must match the span and is dropped.
func (b *Base) Free(id heap.ObjectID, s heap.Span) {
	if cur, ok := b.Objs.Delete(id); ok && cur != s {
		panic(fmt.Sprintf("mm: Free(%d, %v) does not match manager record %v", id, s, cur))
	}
	if err := b.FS.Release(s); err != nil {
		panic(fmt.Sprintf("mm: releasing %v: %v", s, err))
	}
}

// Record adds a placement the manager has just carved from its free
// space to the scan list.
func (b *Base) Record(id heap.ObjectID, s heap.Span) {
	b.Objs.Set(id, s)
}

// MoveObject relocates one of the manager's own objects using the
// engine mover, keeping the free-space index consistent. The
// destination must be free in the manager's index once the object's
// own words are discounted, so overlapping slides are allowed. The
// engine moves first and the destination is reserved only for an
// object that survives: if the program frees the object in response,
// its words are simply gone and removed=true is returned. Nothing
// calls into the manager while the engine moves, so the checked
// destination is still free when it is reserved.
func (b *Base) MoveObject(mv sim.Mover, id heap.ObjectID, to word.Addr) (removed bool, err error) {
	from, ok := b.Objs.Get(id)
	if !ok {
		return false, fmt.Errorf("mm: move of unknown object %d", id)
	}
	dst := heap.Span{Addr: to, Size: from.Size}
	// Vacate the source first so a destination that overlaps the
	// object's current location (a slide) counts as free.
	if err := b.FS.Release(from); err != nil {
		panic(fmt.Sprintf("mm: releasing source %v for move: %v", from, err))
	}
	if !b.FS.IsFree(dst) {
		b.restore(from)
		b.rejectMove(id, from, to)
		return false, fmt.Errorf("mm: move destination %v not free", dst)
	}
	freed, err := mv.Move(id, to)
	if err != nil {
		// The engine refused the move (e.g. budget); roll back.
		b.restore(from)
		b.rejectMove(id, from, to)
		return false, err
	}
	if freed {
		b.Objs.Delete(id)
		return true, nil
	}
	if err := b.FS.Reserve(dst); err != nil {
		panic(fmt.Sprintf("mm: reserving checked destination %v: %v", dst, err))
	}
	b.Objs.Set(id, dst)
	return false, nil
}

// restore re-reserves the source of a move that did not happen.
func (b *Base) restore(from heap.Span) {
	if err := b.FS.Reserve(from); err != nil {
		panic(fmt.Sprintf("mm: rollback reserve of %v failed: %v", from, err))
	}
}

// LiveWords returns the number of words the manager has placed and
// not freed: capacity less free words.
func (b *Base) LiveWords() word.Size {
	return b.FS.Capacity() - b.FS.FreeWords()
}

// AppendObjectsByAddr appends the scan list in address order to buf
// and returns it, so compactors that scan every round can reuse one
// buffer.
func (b *Base) AppendObjectsByAddr(buf []heap.Object) []heap.Object {
	buf = buf[:0]
	b.Objs.Each(func(id heap.ObjectID, s heap.Span) bool {
		buf = append(buf, heap.Object{ID: id, Span: s})
		return true
	})
	slices.SortFunc(buf, func(x, y heap.Object) int {
		// Placements are disjoint, so start addresses are unique keys.
		if x.Span.Addr < y.Span.Addr {
			return -1
		}
		return 1
	})
	return buf
}
