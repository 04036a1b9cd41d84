package core

import (
	"testing"

	"compaction/internal/mm"
	"compaction/internal/sim"
)

// TestAuditHoldsAcrossManagers runs P_F against a mix of managers and
// audits the association invariants after every round.
func TestAuditHoldsAcrossManagers(t *testing.T) {
	cfg := validationConfig()
	for _, name := range []string{"first-fit", "bp-compact", "threshold", "improved", "mark-compact"} {
		name := name
		t.Run(name, func(t *testing.T) {
			mgr, err := mm.New(name)
			if err != nil {
				t.Fatal(err)
			}
			pf := NewPF(Options{})
			e, err := sim.NewEngine(cfg, pf, mgr)
			if err != nil {
				t.Fatal(err)
			}
			e.RoundHook = func(r sim.Result) {
				if err := pf.Audit(); err != nil {
					t.Fatalf("round %d: %v", r.Rounds, err)
				}
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if err := pf.Audit(); err != nil {
				t.Fatalf("final: %v", err)
			}
		})
	}
}

// TestAuditCatchesCorruption sanity-checks the auditor itself by
// corrupting the table.
func TestAuditCatchesCorruption(t *testing.T) {
	mgr, err := mm.New("first-fit")
	if err != nil {
		t.Fatal(err)
	}
	pf := NewPF(Options{})
	e, err := sim.NewEngine(validationConfig(), pf, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: put a chunk into E that has entries.
	for d, n := range pf.table.n {
		if n > 0 {
			pf.table.inE[d] = true
			break
		}
	}
	if err := pf.Audit(); err == nil {
		t.Fatal("auditor missed E corruption")
	}
}
