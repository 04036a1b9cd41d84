package check

import (
	"testing"

	"compaction/internal/heap"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// shuttleManager places every object at address 16 and, during each
// Allocate and StartRound, moves object 1 between addresses 0 and 32,
// so each call takes the referee's move path. It allocates nothing.
type shuttleManager struct{ at word.Addr }

func (m *shuttleManager) Name() string                  { return "shuttle" }
func (m *shuttleManager) Reset(sim.Config)              {}
func (m *shuttleManager) Free(heap.ObjectID, heap.Span) {}

func (m *shuttleManager) shuttle(mv sim.Mover) {
	m.at = 32 - m.at
	if _, err := mv.Move(1, m.at); err != nil {
		panic(err)
	}
}

func (m *shuttleManager) Allocate(id heap.ObjectID, _ word.Size, mv sim.Mover) (word.Addr, error) {
	if id == 1 {
		return 0, nil
	}
	m.shuttle(mv)
	return 16, nil
}

func (m *shuttleManager) StartRound(mv sim.Mover) { m.shuttle(mv) }

// approvingMover approves every move and keeps no state.
type approvingMover struct{}

func (approvingMover) Move(heap.ObjectID, word.Addr) (bool, error) { return false, nil }
func (approvingMover) Remaining() word.Size                        { return 1 << 40 }
func (approvingMover) Lookup(heap.ObjectID) (heap.Span, bool)      { return heap.Span{}, false }

// TestRefereeCallsAreAllocFree pins the referee's per-call cost: once
// warm, allocating, freeing, moving and starting a round allocate
// nothing.
func TestRefereeCallsAreAllocFree(t *testing.T) {
	mgr := &shuttleManager{}
	ref := NewReferee(mgr)
	// c = 0 leaves moves unbounded: the shuttle moves more words than
	// it allocates.
	ref.Reset(sim.Config{M: 64, N: 8, C: 0, Capacity: 1 << 10})
	var mv approvingMover
	if _, err := ref.Allocate(1, 8, mv); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if _, err := ref.Allocate(2, 8, mv); err != nil {
			t.Fatal(err)
		}
		ref.Free(2, heap.Span{Addr: 16, Size: 8})
	}
	cycle() // warm: the shadow's page and bitmap reach their size
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("%v allocations per allocate/move/free, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ref.StartRound(mv) }); n != 0 {
		t.Errorf("%v allocations per StartRound with a move, want 0", n)
	}
	if !ref.Ok() {
		t.Fatalf("violations %v", ref.Violations())
	}
}
