package check

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"compaction/internal/bounds"
	"compaction/internal/mm"
	"compaction/internal/sim"
	"compaction/internal/trace"
)

// fuzzCs are the compaction bounds FuzzManagerTrace cycles through:
// non-moving, unlimited, aggressive, moderate and loose partial.
var fuzzCs = []int64{-1, 0, 2, 8, 32}

// FuzzManagerTrace is the whole-stack fuzz target: arbitrary bytes
// become a model-valid trace (DecodeTrace) replayed against one
// registered manager with a referee attached. Any invariant violation,
// any manager-side failure, and any program-side failure (the decoder
// guarantees a legal program) is a bug.
func FuzzManagerTrace(f *testing.F) {
	f.Add([]byte("0123456789abcdef"))
	f.Add([]byte("\x01\x42\x42\x42\x01\xb0\xb1\x42\x01\xff\xfe\x30"))
	f.Add(bytes.Repeat([]byte{0x40, 0xb0, 0x2f}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		managers := mm.Names()
		manager := managers[int(data[0])%len(managers)]
		c := fuzzCs[int(data[1])%len(fuzzCs)]
		tr := DecodeTrace(data[2:])
		if len(tr.Rounds) == 0 {
			return
		}
		tr.C = c
		rep, err := RunTrace(tr, manager)
		if err != nil {
			t.Fatalf("%s c=%d: construction: %v", manager, c, err)
		}
		if rep.Err != nil {
			t.Fatalf("%s c=%d: replay failed on a decoder-valid trace: %v", manager, c, rep.Err)
		}
		if !rep.Ok() {
			t.Fatalf("%s c=%d: invariant violations:\n%s", manager, c, rep)
		}
	})
}

// FuzzBoundsMonotone checks metamorphic properties of the closed-form
// bounds over the empirically validated parameter domain: Theorem 1's
// waste factor h is nondecreasing in c and stays within (0, log2 n];
// Theorem 2's upper bound is nonincreasing in c and never below 2.
func FuzzBoundsMonotone(f *testing.F) {
	f.Add([]byte{0, 0, 10, 40})
	f.Add([]byte{5, 3, 90, 1})
	f.Add([]byte{10, 7, 255, 45})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		L := 10 + int64(data[0])%11 // n = 2^10 .. 2^20
		n := int64(1) << L
		m := n << (1 + data[1]%8) // M/n = 2 .. 256
		c1 := 2 + int64(data[2])  // 2 .. 257
		c2 := c1 + int64(data[3])
		if c2 > 300 {
			c2 = 300
		}
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		h1, _, err1 := bounds.Theorem1(bounds.Params{M: m, N: n, C: c1})
		h2, _, err2 := bounds.Theorem1(bounds.Params{M: m, N: n, C: c2})
		if err1 != nil || err2 != nil {
			t.Fatalf("Theorem1 failed on valid params (M=%d n=%d c=%d/%d): %v %v", m, n, c1, c2, err1, err2)
		}
		if h2 < h1-1e-9 {
			t.Fatalf("Theorem1 not monotone in c: h(%d)=%f > h(%d)=%f (M=%d n=%d)", c1, h1, c2, h2, m, n)
		}
		for _, hc := range []struct {
			c int64
			h float64
		}{{c1, h1}, {c2, h2}} {
			if math.IsNaN(hc.h) || hc.h <= 0 || hc.h > float64(L) {
				t.Fatalf("Theorem1 out of range: h(c=%d)=%f (M=%d n=%d, L=%d)", hc.c, hc.h, m, n, L)
			}
		}
		// Theorem 2 requires c > L/2.
		t1, t2c := c1, c2
		if min := L/2 + 1; t1 < min {
			t1 = min
		}
		if t2c < t1 {
			t2c = t1
		}
		ub1, uerr1 := bounds.Theorem2(bounds.Params{M: m, N: n, C: t1})
		ub2, uerr2 := bounds.Theorem2(bounds.Params{M: m, N: n, C: t2c})
		if uerr1 != nil || uerr2 != nil {
			t.Fatalf("Theorem2 failed on valid params (M=%d n=%d c=%d/%d): %v %v", m, n, t1, t2c, uerr1, uerr2)
		}
		if ub2 > ub1+1e-9 {
			t.Fatalf("Theorem2 not antitone in c: ub(%d)=%f < ub(%d)=%f (M=%d n=%d)", t1, ub1, t2c, ub2, m, n)
		}
		if ub1 < 2 || ub2 < 2 {
			t.Fatalf("Theorem2 below the structural floor 2: %f / %f", ub1, ub2)
		}
	})
}

// FuzzTraceRoundtrip: every decoder-produced trace must survive the
// JSON encoding bit-exactly. Complements trace.FuzzReadJSON, which
// starts from arbitrary encoded text; this starts from arbitrary
// *semantic* traces.
func FuzzTraceRoundtrip(f *testing.F) {
	f.Add([]byte("roundtrip me \x00\x42\xb0"))
	f.Add(bytes.Repeat([]byte{0x42, 0x01, 0xcc}, 25))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := DecodeTrace(data)
		var js bytes.Buffer
		if err := tr.WriteJSON(&js); err != nil {
			t.Fatalf("json encode: %v", err)
		}
		back, err := trace.ReadJSON(bytes.NewReader(js.Bytes()))
		if err != nil {
			t.Fatalf("json decode: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("json roundtrip diverged:\n%+v\n%+v", tr, back)
		}
	})
}

// TestDecodeTraceAlwaysValid pins the decoder's contract directly: a
// spread of byte patterns must all produce traces that replay with no
// program violation against a plain free-list manager.
func TestDecodeTraceAlwaysValid(t *testing.T) {
	inputs := [][]byte{
		{},
		[]byte("hello, fuzzer"),
		bytes.Repeat([]byte{0xb0}, 100), // frees with nothing live
		bytes.Repeat([]byte{0x42}, 300), // allocs until M
		bytes.Repeat([]byte{0x42, 0x00, 0xff}, 64), // churn
	}
	for i, in := range inputs {
		tr := DecodeTrace(in)
		tr.C = 16
		if len(tr.Rounds) == 0 {
			continue
		}
		rep, err := RunTrace(tr, "first-fit")
		if err != nil {
			t.Fatal(err)
		}
		if errors.Is(rep.Err, sim.ErrProgram) {
			t.Fatalf("input %d: decoder produced an illegal program: %v", i, rep.Err)
		}
		if !rep.Ok() {
			t.Fatalf("input %d: %s", i, rep)
		}
	}
}
