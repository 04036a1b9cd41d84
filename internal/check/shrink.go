package check

import (
	"bytes"
	"fmt"
	"os"

	"compaction/internal/trace"
	"compaction/internal/word"
)

// Shrink greedily minimizes a failing trace: it repeatedly tries to
// delete rounds (in halving chunks, ddmin-style), delete individual
// allocations and frees, and shrink allocation sizes toward 1, keeping
// any candidate for which failing still returns true. The predicate
// fully defines "failing" — candidates that are invalid for the
// caller's purpose (e.g. replay now exceeds M) must simply return
// false. Shrink returns tr unchanged if it does not fail to begin
// with.
//
// The result is a replayable artifact: persist it with WriteArtifact
// and replay it with ReadArtifact / trace.NewReplayer (or
// `compactsim -replay`).
func Shrink(tr *trace.Trace, failing func(*trace.Trace) bool) *trace.Trace {
	if !failing(tr) {
		return tr
	}
	cur := cloneTrace(tr)
	for improved := true; improved; {
		improved = false
		// Pass 1: drop contiguous chunks of rounds, large chunks first.
		for chunk := len(cur.Rounds); chunk >= 1; chunk /= 2 {
			for lo := 0; lo+chunk <= len(cur.Rounds); {
				cand := dropRounds(cur, lo, lo+chunk)
				if failing(cand) {
					cur = cand
					improved = true
					// Do not advance: the next chunk slid into place.
				} else {
					lo++
				}
			}
		}
		// Pass 2: drop individual allocations.
		for r := 0; r < len(cur.Rounds); r++ {
			for a := 0; a < len(cur.Rounds[r].AllocSizes); {
				cand := dropAlloc(cur, r, a)
				if failing(cand) {
					cur = cand
					improved = true
				} else {
					a++
				}
			}
		}
		// Pass 3: drop individual frees.
		for r := 0; r < len(cur.Rounds); r++ {
			for f := 0; f < len(cur.Rounds[r].FreeOrdinals); {
				cand := cloneTrace(cur)
				cand.Rounds[r].FreeOrdinals = append(
					append([]int64(nil), cand.Rounds[r].FreeOrdinals[:f]...),
					cand.Rounds[r].FreeOrdinals[f+1:]...)
				if failing(cand) {
					cur = cand
					improved = true
				} else {
					f++
				}
			}
		}
		// Pass 4: halve allocation sizes toward 1.
		for r := 0; r < len(cur.Rounds); r++ {
			for a := 0; a < len(cur.Rounds[r].AllocSizes); a++ {
				for cur.Rounds[r].AllocSizes[a] > 1 {
					cand := cloneTrace(cur)
					cand.Rounds[r].AllocSizes[a] /= 2
					if !failing(cand) {
						break
					}
					cur = cand
					improved = true
				}
			}
		}
	}
	return cur
}

func cloneTrace(tr *trace.Trace) *trace.Trace {
	out := &trace.Trace{Program: tr.Program, M: tr.M, N: tr.N, C: tr.C}
	out.Rounds = make([]trace.Round, len(tr.Rounds))
	for i, rd := range tr.Rounds {
		out.Rounds[i] = trace.Round{
			FreeOrdinals: append([]int64(nil), rd.FreeOrdinals...),
			AllocSizes:   append([]word.Size(nil), rd.AllocSizes...),
		}
	}
	return out
}

// dropRounds removes rounds [lo, hi), dropping the frees of the
// ordinals allocated there and renumbering every later ordinal so the
// remaining trace stays self-consistent.
func dropRounds(tr *trace.Trace, lo, hi int) *trace.Trace {
	removed := make(map[int64]bool)
	ord := int64(0)
	shift := make(map[int64]int64) // ordinal -> new ordinal
	cut := int64(0)
	for r, rd := range tr.Rounds {
		for range rd.AllocSizes {
			if r >= lo && r < hi {
				removed[ord] = true
				cut++
			} else {
				shift[ord] = ord - cut
			}
			ord++
		}
	}
	out := &trace.Trace{Program: tr.Program, M: tr.M, N: tr.N, C: tr.C}
	for r, rd := range tr.Rounds {
		if r >= lo && r < hi {
			continue
		}
		nr := trace.Round{AllocSizes: append([]word.Size(nil), rd.AllocSizes...)}
		for _, o := range rd.FreeOrdinals {
			if removed[o] {
				continue
			}
			nr.FreeOrdinals = append(nr.FreeOrdinals, shift[o])
		}
		out.Rounds = append(out.Rounds, nr)
	}
	return out
}

// dropAlloc removes the a-th allocation of round r, dropping its frees
// and renumbering later ordinals.
func dropAlloc(tr *trace.Trace, r, a int) *trace.Trace {
	starts := make([]int64, len(tr.Rounds))
	ord := int64(0)
	for i, rd := range tr.Rounds {
		starts[i] = ord
		ord += int64(len(rd.AllocSizes))
	}
	target := starts[r] + int64(a)
	out := &trace.Trace{Program: tr.Program, M: tr.M, N: tr.N, C: tr.C}
	for i, rd := range tr.Rounds {
		nr := trace.Round{}
		for j, s := range rd.AllocSizes {
			if starts[i]+int64(j) == target {
				continue
			}
			nr.AllocSizes = append(nr.AllocSizes, s)
		}
		for _, o := range rd.FreeOrdinals {
			switch {
			case o == target:
				continue
			case o > target:
				nr.FreeOrdinals = append(nr.FreeOrdinals, o-1)
			default:
				nr.FreeOrdinals = append(nr.FreeOrdinals, o)
			}
		}
		out.Rounds = append(out.Rounds, nr)
	}
	return out
}

// WriteArtifact persists a (typically minimized) failing trace as
// JSON so it can be replayed later.
func WriteArtifact(path string, tr *trace.Trace) error {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return fmt.Errorf("check: encoding artifact: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadArtifact loads a trace written by WriteArtifact.
func ReadArtifact(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadJSON(f)
}
