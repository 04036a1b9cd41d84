package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"compaction/internal/word"
)

func TestFreeSpaceInitial(t *testing.T) {
	f := NewFreeSpace(1000)
	if f.Capacity() != 1000 || f.FreeWords() != 1000 || f.Intervals() != 1 {
		t.Fatalf("initial state wrong: cap=%d free=%d n=%d", f.Capacity(), f.FreeWords(), f.Intervals())
	}
	if f.LargestGap() != 1000 {
		t.Fatalf("LargestGap = %d", f.LargestGap())
	}
}

func TestFirstFitSequential(t *testing.T) {
	f := NewFreeSpace(100)
	for i := 0; i < 10; i++ {
		a, err := f.AllocFirstFit(10)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if a != word.Addr(i*10) {
			t.Fatalf("alloc %d at %d, want %d", i, a, i*10)
		}
	}
	if _, err := f.AllocFirstFit(1); err != ErrNoFit {
		t.Fatalf("expected ErrNoFit on full heap, got %v", err)
	}
}

func TestFirstFitReusesLowestHole(t *testing.T) {
	f := NewFreeSpace(100)
	for i := 0; i < 10; i++ {
		if _, err := f.AllocFirstFit(10); err != nil {
			t.Fatal(err)
		}
	}
	// Free holes at [10,20) and [50,60).
	if err := f.Release(Span{10, 10}); err != nil {
		t.Fatal(err)
	}
	if err := f.Release(Span{50, 10}); err != nil {
		t.Fatal(err)
	}
	a, err := f.AllocFirstFit(5)
	if err != nil || a != 10 {
		t.Fatalf("first fit chose %d (%v), want 10", a, err)
	}
	a, err = f.AllocFirstFit(10)
	if err != nil || a != 50 {
		t.Fatalf("first fit chose %d (%v), want 50", a, err)
	}
}

func TestBestFitChoosesTightestHole(t *testing.T) {
	f := NewFreeSpace(1000)
	// Occupy all, then open holes of sizes 30, 8, 12.
	if _, err := f.AllocFirstFit(1000); err != nil {
		t.Fatal(err)
	}
	for _, h := range []Span{{100, 30}, {300, 8}, {500, 12}} {
		if err := f.Release(h); err != nil {
			t.Fatal(err)
		}
	}
	a, err := f.AllocBestFit(10)
	if err != nil || a != 500 {
		t.Fatalf("best fit for 10 chose %d (%v), want 500 (size-12 hole)", a, err)
	}
	a, err = f.AllocBestFit(8)
	if err != nil || a != 300 {
		t.Fatalf("best fit for 8 chose %d (%v), want 300 (exact hole)", a, err)
	}
	a, err = f.AllocBestFit(25)
	if err != nil || a != 100 {
		t.Fatalf("best fit for 25 chose %d (%v), want 100", a, err)
	}
}

func TestWorstFitChoosesLargestHole(t *testing.T) {
	f := NewFreeSpace(1000)
	if _, err := f.AllocFirstFit(1000); err != nil {
		t.Fatal(err)
	}
	for _, h := range []Span{{100, 30}, {300, 80}, {500, 12}} {
		if err := f.Release(h); err != nil {
			t.Fatal(err)
		}
	}
	a, err := f.AllocWorstFit(10)
	if err != nil || a != 300 {
		t.Fatalf("worst fit chose %d (%v), want 300", a, err)
	}
}

func TestNextFitWrapsAround(t *testing.T) {
	f := NewFreeSpace(100)
	if _, err := f.AllocFirstFit(100); err != nil {
		t.Fatal(err)
	}
	for _, h := range []Span{{10, 10}, {80, 10}} {
		if err := f.Release(h); err != nil {
			t.Fatal(err)
		}
	}
	a, err := f.AllocNextFit(5, 50)
	if err != nil || a != 80 {
		t.Fatalf("next fit from 50 chose %d (%v), want 80", a, err)
	}
	a, err = f.AllocNextFit(5, 90)
	if err != nil || a != 10 {
		t.Fatalf("next fit from 90 should wrap to 10, got %d (%v)", a, err)
	}
}

func TestAlignedFirstFit(t *testing.T) {
	f := NewFreeSpace(100)
	// Reserve [0,5): the remaining gap starts at 5, so an 8-aligned
	// placement of size 8 must go to 8.
	if err := f.Reserve(Span{0, 5}); err != nil {
		t.Fatal(err)
	}
	a, err := f.AllocAlignedFirstFit(8, 8)
	if err != nil || a != 8 {
		t.Fatalf("aligned fit chose %d (%v), want 8", a, err)
	}
	// The hole [5,8) remains free.
	if !f.IsFree(Span{5, 3}) {
		t.Fatalf("expected [5,8) free")
	}
	// A gap large enough but with no aligned start inside must be skipped.
	f2 := NewFreeSpace(64)
	if _, err := f2.AllocFirstFit(64); err != nil {
		t.Fatal(err)
	}
	if err := f2.Release(Span{17, 16}); err != nil { // [17,33): contains 24 but 24+16>33
		t.Fatal(err)
	}
	if _, err := f2.AllocAlignedFirstFit(16, 16); err != ErrNoFit {
		t.Fatalf("expected ErrNoFit for unaligned-only gap, got %v", err)
	}
}

func TestReserveAndIsFree(t *testing.T) {
	f := NewFreeSpace(100)
	if err := f.Reserve(Span{20, 10}); err != nil {
		t.Fatal(err)
	}
	if f.IsFree(Span{20, 1}) || f.IsFree(Span{25, 10}) {
		t.Fatalf("reserved words reported free")
	}
	if !f.IsFree(Span{0, 20}) || !f.IsFree(Span{30, 70}) {
		t.Fatalf("free words reported occupied")
	}
	if err := f.Reserve(Span{25, 10}); err == nil {
		t.Fatalf("overlapping reserve succeeded")
	}
	if err := f.Reserve(Span{95, 10}); err == nil {
		t.Fatalf("out-of-capacity reserve succeeded")
	}
	if f.FreeWords() != 90 {
		t.Fatalf("FreeWords = %d, want 90", f.FreeWords())
	}
}

func TestReleaseCoalesces(t *testing.T) {
	f := NewFreeSpace(100)
	if _, err := f.AllocFirstFit(100); err != nil {
		t.Fatal(err)
	}
	// Release three touching spans in scrambled order; they must merge.
	for _, s := range []Span{{30, 10}, {50, 10}, {40, 10}} {
		if err := f.Release(s); err != nil {
			t.Fatal(err)
		}
	}
	if f.Intervals() != 1 || f.FreeWords() != 30 {
		t.Fatalf("coalescing failed: intervals=%d free=%d", f.Intervals(), f.FreeWords())
	}
	if !f.IsFree(Span{30, 30}) {
		t.Fatalf("merged interval not free")
	}
	// Double free must fail.
	if err := f.Release(Span{35, 5}); err == nil {
		t.Fatalf("double free succeeded")
	}
}

func TestGapsWalk(t *testing.T) {
	f := NewFreeSpace(100)
	if _, err := f.AllocFirstFit(100); err != nil {
		t.Fatal(err)
	}
	holes := []Span{{10, 5}, {40, 5}, {70, 5}}
	for _, h := range holes {
		if err := f.Release(h); err != nil {
			t.Fatal(err)
		}
	}
	var got []Span
	f.Gaps(func(s Span) bool {
		got = append(got, s)
		return true
	})
	if len(got) != 3 {
		t.Fatalf("walked %d gaps, want 3", len(got))
	}
	for i, h := range holes {
		if got[i] != h {
			t.Fatalf("gap %d = %v, want %v", i, got[i], h)
		}
	}
}

// refModel is a brute-force boolean-array model of the free space.
// Every FreeSpace query has a linear-scan counterpart here, simple
// enough to be right by inspection; FuzzFreeIndex and the randomized
// tests check the indexed implementation against it.
type refModel struct {
	free []bool
}

func newRefModel(capacity int) *refModel {
	m := &refModel{free: make([]bool, capacity)}
	for i := range m.free {
		m.free[i] = true
	}
	return m
}

// all reports whether s is non-empty, in range, and every word of s
// is free (v) or every word is allocated (!v).
func (m *refModel) all(s Span, v bool) bool {
	if s.Empty() || s.Addr < 0 || s.End() > int64(len(m.free)) {
		return false
	}
	for a := s.Addr; a < s.End(); a++ {
		if m.free[a] != v {
			return false
		}
	}
	return true
}

func (m *refModel) isFree(s Span) bool { return m.all(s, true) }

func (m *refModel) set(s Span, v bool) {
	for a := s.Addr; a < s.End(); a++ {
		m.free[a] = v
	}
}

// reserve and release mirror FreeSpace.Reserve and Release: they
// succeed, and flip s, only when every word of s is free (reserve) or
// allocated (release).
func (m *refModel) reserve(s Span) bool {
	ok := m.all(s, true)
	if ok {
		m.set(s, false)
	}
	return ok
}

func (m *refModel) release(s Span) bool {
	ok := m.all(s, false)
	if ok {
		m.set(s, true)
	}
	return ok
}

// runs returns the maximal free runs in address order.
func (m *refModel) runs() []Span {
	var out []Span
	for a := int64(0); a < int64(len(m.free)); a++ {
		if !m.free[a] {
			continue
		}
		start := a
		for a < int64(len(m.free)) && m.free[a] {
			a++
		}
		out = append(out, Span{start, a - start})
	}
	return out
}

// firstFit returns the lowest address of a run of size free words.
func (m *refModel) firstFit(size int64) (int64, bool) {
	run := int64(0)
	for a := int64(0); a < int64(len(m.free)); a++ {
		if m.free[a] {
			run++
			if run == size {
				return a - size + 1, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

// nextFit returns the start of the first run starting at or after
// cursor that holds size words, wrapping to firstFit when there is
// none.
func (m *refModel) nextFit(size, cursor int64) (int64, bool) {
	if a, ok := m.firstFitFrom(size, cursor); ok {
		return a, true
	}
	return m.firstFit(size)
}

// firstFitFrom returns the start of the lowest run that starts at or
// after from and holds size words.
func (m *refModel) firstFitFrom(size, from int64) (int64, bool) {
	for _, r := range m.runs() {
		if r.Addr >= from && r.Size >= size {
			return r.Addr, true
		}
	}
	return 0, false
}

// bestFit returns the start of the smallest run that holds size
// words, the lowest such run on ties.
func (m *refModel) bestFit(size int64) (int64, bool) {
	var best Span
	for _, r := range m.runs() {
		if r.Size >= size && (best.Empty() || r.Size < best.Size) {
			best = r
		}
	}
	return best.Addr, !best.Empty()
}

// worstFit returns the start of the largest run, the lowest such run
// on ties, if it holds size words.
func (m *refModel) worstFit(size int64) (int64, bool) {
	var worst Span
	for _, r := range m.runs() {
		if r.Size > worst.Size {
			worst = r
		}
	}
	return worst.Addr, worst.Size >= size
}

// alignedFit returns the lowest multiple of align at which size words
// are free.
func (m *refModel) alignedFit(size, align int64) (int64, bool) {
	for a := int64(0); a+size <= int64(len(m.free)); a += align {
		if m.isFree(Span{a, size}) {
			return a, true
		}
	}
	return 0, false
}

func (m *refModel) freeWords() int64 {
	var n int64
	for _, v := range m.free {
		if v {
			n++
		}
	}
	return n
}

func (m *refModel) largestGap() int64 {
	var largest int64
	for _, r := range m.runs() {
		largest = max(largest, r.Size)
	}
	return largest
}

// modelRun drives a FreeSpace and a refModel through the same
// operations. live holds the spans placed or reserved so far, which
// release-live picks from; an arbitrary release may have freed part
// of one since, and then both sides must refuse to release it.
type modelRun struct {
	f    *FreeSpace
	m    *refModel
	live []Span
}

func newModelRun(capacity int) *modelRun {
	return &modelRun{f: NewFreeSpace(word.Size(capacity)), m: newRefModel(capacity)}
}

// modelOps names the operations step decodes from op%8.
var modelOps = [8]string{"first-fit", "release", "best-fit", "worst-fit",
	"aligned-fit", "next-fit", "release-live", "reserve"}

// step applies one operation, decoded from op and arg, to both sides
// and reports the first disagreement in placement or error.
func (r *modelRun) step(op, arg byte) error {
	size := 1 + word.Size(arg)%64
	at := word.Addr(arg) * r.f.Capacity() / 256
	align := word.Size(1) << (arg % 6)
	var (
		got, want word.Addr
		err       error
		ok        bool
	)
	switch op % 8 {
	case 0:
		got, err = r.f.AllocFirstFit(size)
		want, ok = r.m.firstFit(size)
	case 1:
		return r.release(Span{at, size})
	case 2:
		got, err = r.f.AllocBestFit(size)
		want, ok = r.m.bestFit(size)
	case 3:
		got, err = r.f.AllocWorstFit(size)
		want, ok = r.m.worstFit(size)
	case 4:
		got, err = r.f.AllocAlignedFirstFit(size, align)
		want, ok = r.m.alignedFit(size, align)
	case 5:
		peek, pok := r.f.PeekFirstFit(size, at)
		if w, ok := r.m.firstFitFrom(size, at); pok != ok || (ok && peek.Addr != w) {
			return fmt.Errorf("PeekFirstFit(size %d, from %d) = (%v, %v), model (%d, %v)", size, at, peek, pok, w, ok)
		}
		got, err = r.f.AllocNextFit(size, at)
		want, ok = r.m.nextFit(size, at)
	case 6:
		if len(r.live) == 0 {
			return nil
		}
		j := int(arg) % len(r.live)
		s := r.live[j]
		r.live = slices.Delete(r.live, j, j+1)
		return r.release(s)
	case 7:
		return r.reserve(Span{at, size})
	}
	if (err == nil) != ok || (ok && got != want) || (err != nil && !errors.Is(err, ErrNoFit)) {
		return fmt.Errorf("%s(size %d, arg %d) = (%d, %v), model (%d, %v)",
			modelOps[op%8], size, arg, got, err, want, ok)
	}
	if ok {
		r.m.set(Span{got, size}, false)
		r.live = append(r.live, Span{got, size})
	}
	return nil
}

func (r *modelRun) release(s Span) error {
	if err, ok := r.f.Release(s), r.m.release(s); (err == nil) != ok {
		return fmt.Errorf("release %v: err %v, model ok %v", s, err, ok)
	}
	return nil
}

func (r *modelRun) reserve(s Span) error {
	if got, want := r.f.IsFree(s), r.m.isFree(s); got != want {
		return fmt.Errorf("IsFree(%v) = %v, model %v", s, got, want)
	}
	err, ok := r.f.Reserve(s), r.m.reserve(s)
	if (err == nil) != ok {
		return fmt.Errorf("reserve %v: err %v, model ok %v", s, err, ok)
	}
	if ok {
		r.live = append(r.live, s)
	}
	return nil
}

// compare checks the aggregate views and the gap walk against the
// model, and the indexes' internal consistency.
func (r *modelRun) compare() error {
	if err := r.f.Validate(); err != nil {
		return err
	}
	runs := r.m.runs()
	if r.f.FreeWords() != r.m.freeWords() || r.f.Intervals() != len(runs) || r.f.LargestGap() != r.m.largestGap() {
		return fmt.Errorf("free %d/%d intervals %d/%d largest gap %d/%d (impl/model)",
			r.f.FreeWords(), r.m.freeWords(), r.f.Intervals(), len(runs), r.f.LargestGap(), r.m.largestGap())
	}
	var gaps []Span
	r.f.Gaps(func(s Span) bool { gaps = append(gaps, s); return true })
	if !slices.Equal(gaps, runs) {
		return fmt.Errorf("gap walk diverges:\nimpl  %v\nmodel %v", gaps, runs)
	}
	// The walk stops as soon as fn returns false.
	stop, n := len(runs)/2+1, 0
	r.f.Gaps(func(Span) bool { n++; return n < stop })
	if want := min(stop, len(runs)); n != want {
		return fmt.Errorf("gap walk stopped after %d intervals, want %d", n, want)
	}
	return nil
}

// FuzzFreeIndex drives FreeSpace and the brute-force refModel through
// the same operation sequence, two bytes per operation, and compares
// every placement and error, the aggregate views, the gap walk and
// Validate after each one.
func FuzzFreeIndex(f *testing.F) {
	f.Add([]byte{0, 10, 1, 20, 2, 30, 5, 3, 6, 0})
	f.Add([]byte("interleaved allocs and releases \x00\x05\x06\x07"))
	f.Add(bytes.Repeat([]byte{0, 63, 5, 0, 7, 200}, 16))
	churn := make([]byte, 1200) // 600 random operations of every kind
	rand.New(rand.NewSource(1)).Read(churn)
	f.Add(churn)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newModelRun(1 << 12)
		for i := 0; i+1 < len(data); i += 2 {
			if err := r.step(data[i], data[i+1]); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			if err := r.compare(); err != nil {
				t.Fatalf("after op %d: %v", i/2, err)
			}
		}
	})
}

func TestFreeSpaceAgainstReferenceModel(t *testing.T) {
	const capacity = 512
	rng := rand.New(rand.NewSource(7))
	f := NewFreeSpace(capacity)
	m := newRefModel(capacity)
	var allocated []Span
	for step := 0; step < 5000; step++ {
		if rng.Intn(2) == 0 || len(allocated) == 0 {
			size := int64(1 + rng.Intn(32))
			wantAddr, wantOK := m.firstFit(size)
			got, err := f.AllocFirstFit(size)
			if wantOK != (err == nil) {
				t.Fatalf("step %d: firstFit(%d) ok mismatch: model %v, impl err %v", step, size, wantOK, err)
			}
			if err == nil {
				if got != wantAddr {
					t.Fatalf("step %d: firstFit(%d) = %d, model says %d", step, size, got, wantAddr)
				}
				s := Span{got, size}
				m.set(s, false)
				allocated = append(allocated, s)
			}
		} else {
			i := rng.Intn(len(allocated))
			s := allocated[i]
			allocated[i] = allocated[len(allocated)-1]
			allocated = allocated[:len(allocated)-1]
			if err := f.Release(s); err != nil {
				t.Fatalf("step %d: release %v: %v", step, s, err)
			}
			m.set(s, true)
		}
		if f.FreeWords() != m.freeWords() {
			t.Fatalf("step %d: free words %d, model %d", step, f.FreeWords(), m.freeWords())
		}
	}
}

func TestBestFitAgainstReferenceModel(t *testing.T) {
	const capacity = 256
	rng := rand.New(rand.NewSource(11))
	f := NewFreeSpace(capacity)
	m := newRefModel(capacity)
	var allocated []Span
	for step := 0; step < 4000; step++ {
		if rng.Intn(2) == 0 || len(allocated) == 0 {
			size := int64(1 + rng.Intn(24))
			want, wantOK := m.bestFit(size)
			got, err := f.AllocBestFit(size)
			if wantOK != (err == nil) {
				t.Fatalf("step %d: bestFit(%d) ok mismatch", step, size)
			}
			if err == nil {
				if got != want {
					t.Fatalf("step %d: bestFit(%d) = %d, model says %d", step, size, got, want)
				}
				s := Span{got, size}
				m.set(s, false)
				allocated = append(allocated, s)
			}
		} else {
			i := rng.Intn(len(allocated))
			s := allocated[i]
			allocated[i] = allocated[len(allocated)-1]
			allocated = allocated[:len(allocated)-1]
			if err := f.Release(s); err != nil {
				t.Fatalf("step %d: release %v: %v", step, s, err)
			}
			m.set(s, true)
		}
	}
}

// TestValidateCatchesSizeIndexDrift: Validate must find an interval
// of the address index missing from the size index even when the
// index sizes agree and a best-fit probe would still find a span
// large enough.
func TestValidateCatchesSizeIndexDrift(t *testing.T) {
	f := NewFreeSpace(100)
	if err := f.Reserve(Span{0, 100}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Span{{10, 10}, {30, 10}} {
		if err := f.Release(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	f.bySize.remove(Span{30, 10})
	f.bySize.insert(Span{70, 10})
	if err := f.Validate(); err == nil {
		t.Fatal("Validate accepted a size index holding [70,80) in place of [30,40)")
	}
}

// isolatedHoles returns a FreeSpace of capacity 2·holes in which every
// even word is a free one-word interval and every odd word is taken.
func isolatedHoles(tb testing.TB, holes int) *FreeSpace {
	f := NewFreeSpace(word.Size(2 * holes))
	if err := f.Reserve(Span{0, word.Size(2 * holes)}); err != nil {
		tb.Fatal(err)
	}
	for a := word.Addr(0); a < word.Addr(2*holes); a += 2 {
		if err := f.Release(Span{a, 1}); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

// TestValidateCatchesTreeDrift: Validate must check each tree itself,
// not only the intervals it holds. A stale maximum makes first-fit
// skip a fitting hole, and a stale separator misroutes descents, while
// every interval is still present in both indexes.
func TestValidateCatchesTreeDrift(t *testing.T) {
	f := isolatedHoles(t, 1<<12)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.byAddr.height < 3 || f.bySize.height < 3 {
		t.Fatalf("heights %d and %d, want three levels or more", f.byAddr.height, f.bySize.height)
	}
	mid := f.byAddr.root.in.kid[0] // an inner node under the root
	corrupt := []struct {
		what string
		poke func() func() // corrupts one field and returns its repair
	}{
		{"a stored maximum", func() func() {
			old := mid.in.max[1]
			mid.in.max[1] = 0
			return func() { mid.in.max[1] = old }
		}},
		{"a separator", func() func() {
			mid.addr[1]++
			return func() { mid.addr[1]-- }
		}},
		{"a size-order separator", func() func() {
			sep := &f.bySize.root.in.kid[0].addr[1]
			*sep--
			return func() { *sep++ }
		}},
	}
	for _, c := range corrupt {
		repair := c.poke()
		if err := f.Validate(); err == nil {
			t.Errorf("Validate accepted %s out of step with its child", c.what)
		}
		repair()
		if err := f.Validate(); err != nil {
			t.Fatalf("after repairing %s: %v", c.what, err)
		}
	}
}

// TestFreeSpaceDeepTreeAgainstModel runs the model comparison on a
// tree of three levels. First-fit placements of 1–3 words fill a
// 2^14-word heap, and releasing a random half of them leaves over 1,500
// intervals. A mix of all eight operations, weighted towards
// release-live, then drains them, so that inner nodes split, merge and
// borrow and the root gives way to its child.
func TestFreeSpaceDeepTreeAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newModelRun(1 << 14)
		for r.f.FreeWords() > 0 {
			if err := r.step(0, byte(rng.Int63n(min(3, r.f.FreeWords())))); err != nil {
				t.Fatalf("seed %d, filling: %v", seed, err)
			}
		}
		rng.Shuffle(len(r.live), func(i, j int) { r.live[i], r.live[j] = r.live[j], r.live[i] })
		half := len(r.live) / 2
		for _, s := range r.live[half:] {
			if err := r.release(s); err != nil {
				t.Fatalf("seed %d, fragmenting: %v", seed, err)
			}
		}
		r.live = r.live[:half]
		if err := r.compare(); err != nil {
			t.Fatalf("seed %d, fragmented: %v", seed, err)
		}
		peak, n := r.f.byAddr.height, r.f.Intervals()
		if n <= 1500 {
			t.Fatalf("seed %d: fragmenting left %d intervals, want over 1,500", seed, n)
		}
		for i := 1; i <= 20000 && r.f.byAddr.height == peak; i++ {
			op := byte(6)
			if rng.Intn(4) == 0 {
				op = byte(rng.Intn(8))
			}
			if err := r.step(op, byte(rng.Intn(256))); err != nil {
				t.Fatalf("seed %d, op %d: %v", seed, i, err)
			}
			if i%200 == 0 {
				if err := r.compare(); err != nil {
					t.Fatalf("seed %d, after op %d: %v", seed, i, err)
				}
			}
		}
		if err := r.compare(); err != nil {
			t.Fatalf("seed %d, drained: %v", seed, err)
		}
		t.Logf("seed %d: height %d at %d intervals, %d at %d", seed, peak, n, r.f.byAddr.height, r.f.Intervals())
		if h := r.f.byAddr.height; peak < 3 || h >= peak {
			t.Fatalf("seed %d: height %d at %d intervals, then %d at %d; want at least 3, then lower",
				seed, peak, n, h, r.f.Intervals())
		}
	}
}

// BenchmarkFreeIndex measures the free-space index. churn is first-fit
// alloc/release churn from an empty heap. pf is P_F's shape: 2^16
// isolated one-word holes in a 2^17-word heap, then releases of the
// one-word objects between them, each followed by a first-fit or a
// best-fit placement, which keep the count near 2^16 (the intervals
// metric reports where it ends).
func BenchmarkFreeIndex(b *testing.B) {
	b.Run("churn", func(b *testing.B) {
		const capacity = 1 << 16
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := NewFreeSpace(capacity)
			var live []Span
			for step := 0; step < 2000; step++ {
				if rng.Intn(2) == 0 || len(live) == 0 {
					size := int64(1 + rng.Intn(64))
					if a, err := f.AllocFirstFit(size); err == nil {
						live = append(live, Span{a, size})
					}
				} else {
					j := rng.Intn(len(live))
					s := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					if err := f.Release(s); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("pf", func(b *testing.B) {
		const holes, steps = 1 << 16, 1 << 13
		b.ReportAllocs()
		var intervals int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := isolatedHoles(b, holes)
			f.ensureSize()
			rng := rand.New(rand.NewSource(int64(i)))
			live := make([]word.Addr, 0, holes)
			for a := word.Addr(1); a < 2*holes; a += 2 {
				live = append(live, a)
			}
			b.StartTimer()
			for step := 0; step < steps; step++ {
				j := rng.Intn(len(live))
				if err := f.Release(Span{live[j], 1}); err != nil {
					b.Fatal(err)
				}
				var err error
				if step%2 == 0 {
					live[j], err = f.AllocFirstFit(1)
				} else {
					live[j], err = f.AllocBestFit(1)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			intervals = f.Intervals()
		}
		b.ReportMetric(float64(intervals), "intervals")
	})
}
