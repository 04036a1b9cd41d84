package mm_test

import (
	"errors"
	"slices"
	"testing"

	"compaction/internal/heap"
	"compaction/internal/mm"
	"compaction/internal/obs"
	"compaction/internal/sim"
	"compaction/internal/word"
)

// scriptedMover answers every move the same way, as an engine that
// refuses it (err), or as a program that frees the object on seeing it
// moved (freed).
type scriptedMover struct {
	freed bool
	err   error
	calls int
}

func (s *scriptedMover) Move(heap.ObjectID, word.Addr) (bool, error) {
	s.calls++
	return s.freed, s.err
}
func (s *scriptedMover) Remaining() word.Size                   { return 1 << 20 }
func (s *scriptedMover) Lookup(heap.ObjectID) (heap.Span, bool) { return heap.Span{}, false }

// rejectCounter counts move-reject events.
type rejectCounter struct{ n int }

func (r *rejectCounter) Emit(ev obs.Event) {
	if ev.Kind == obs.EvMoveReject {
		r.n++
	}
}

func gaps(fs *heap.FreeSpace) []heap.Span {
	var out []heap.Span
	fs.Gaps(func(s heap.Span) bool { out = append(out, s); return true })
	return out
}

// TestMoveObjectOutcomes covers Base.MoveObject's four outcomes. A
// refused move (occupied destination, or the engine says no) returns an
// error, emits one move-reject event and leaves the free space and the
// scan list as they were. A moved object the program frees leaves both
// its source and its destination free and its scan-list entry gone. A
// moved object that survives has its destination reserved.
func TestMoveObjectOutcomes(t *testing.T) {
	engineSays := errors.New("engine: over budget")
	a := heap.Span{Addr: 0, Size: 8} // the object moved, ID 1
	b := heap.Span{Addr: 8, Size: 8} // its neighbour, ID 2
	for _, tc := range []struct {
		name    string
		freeB   bool // free the neighbour first
		to      word.Addr
		mv      scriptedMover
		refused bool
		removed bool
		free    []heap.Span // free after the move
		live    word.Size   // live words after the move
	}{
		{name: "destination occupied", to: b.Addr, refused: true},
		{name: "engine refuses", to: 32, mv: scriptedMover{err: engineSays}, refused: true},
		{name: "program frees it", to: 32, mv: scriptedMover{freed: true}, removed: true,
			free: []heap.Span{a, {Addr: 32, Size: 8}}, live: 8},
		{name: "object survives", to: 32, free: []heap.Span{a}, live: 16},
		{name: "slide survives", freeB: true, to: 4, free: []heap.Span{{Addr: 0, Size: 4}}, live: 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var base mm.Base
			base.Reset(sim.Config{M: 64, N: 8, C: 1, Capacity: 64})
			var rejects rejectCounter
			base.SetTracer(&rejects)
			for id, s := range []heap.Span{a, b} {
				if err := base.FS.Reserve(s); err != nil {
					t.Fatal(err)
				}
				base.Record(heap.ObjectID(id+1), s)
			}
			if tc.freeB {
				base.Free(2, b)
			}
			before := gaps(base.FS)
			dst := heap.Span{Addr: tc.to, Size: a.Size}

			removed, err := base.MoveObject(&tc.mv, 1, tc.to)

			if tc.refused {
				if err == nil {
					t.Fatal("refused move returned no error")
				}
				if tc.mv.err != nil && !errors.Is(err, tc.mv.err) {
					t.Fatalf("error %v does not carry the engine's %v", err, tc.mv.err)
				}
				if rejects.n != 1 {
					t.Fatalf("%d move-reject events, want 1", rejects.n)
				}
				if after := gaps(base.FS); !slices.Equal(before, after) {
					t.Fatalf("free space changed: %v, was %v", after, before)
				}
				if s, ok := base.Objs.Get(1); !ok || s != a {
					t.Fatalf("scan list holds %v, %t; want %v", s, ok, a)
				}
				return
			}
			if err != nil || removed != tc.removed {
				t.Fatalf("MoveObject = %t, %v; want %t, nil", removed, err, tc.removed)
			}
			if rejects.n != 0 || tc.mv.calls != 1 {
				t.Fatalf("%d move-reject events and %d engine calls, want 0 and 1", rejects.n, tc.mv.calls)
			}
			for _, f := range tc.free {
				if !base.FS.IsFree(f) {
					t.Fatalf("%v not free after the move: free space %v", f, gaps(base.FS))
				}
			}
			if got := base.LiveWords(); got != tc.live {
				t.Fatalf("live words %d, want %d", got, tc.live)
			}
			s, ok := base.Objs.Get(1)
			if tc.removed {
				if ok {
					t.Fatalf("freed object still on the scan list at %v", s)
				}
				return
			}
			if !ok || s != dst {
				t.Fatalf("scan list holds %v, %t; want %v", s, ok, dst)
			}
			for w := dst.Addr; w < dst.End(); w++ {
				if base.FS.IsFree(heap.Span{Addr: w, Size: 1}) {
					t.Fatalf("destination word %d not reserved", w)
				}
			}
		})
	}
}
