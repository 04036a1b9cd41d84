package resume

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"compaction/internal/faultinject"
	"compaction/internal/sim"
)

func lease(op Op, cell int, token uint64) LeaseRecord {
	rec := LeaseRecord{
		Op: op, Cell: cell, Fingerprint: Fingerprint(key(cell)),
		Worker: "w1", Token: token,
	}
	if op == OpCommit {
		rec.Result = &sim.Result{Program: "pf", Manager: "first-fit", Rounds: 10, HighWater: int64(100 * cell)}
	}
	return rec
}

func boundLedger(t *testing.T, dir string) *Ledger {
	t.Helper()
	l, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1))})
	if err := l.Bind(grid, 2, "adv=pf seed=1 rounds=10 ell=0"); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLedgerRoundtripAndReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	for _, rec := range []LeaseRecord{
		lease(OpClaim, 0, 1),
		lease(OpCommit, 0, 1),
		lease(OpClaim, 1, 2),
		lease(OpFail, 1, 2),
		lease(OpQuarantine, 1, 2),
	} {
		if rec.Op == OpQuarantine || rec.Op == OpFail {
			rec.Reason = "boom"
		}
		if err := l.Append(rec); err != nil {
			t.Fatalf("append %s: %v", rec.Op, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := ReplayLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Bound || st.Cells != 2 {
		t.Fatalf("replay: bound=%v cells=%d", st.Bound, st.Cells)
	}
	rec, ok := st.Commits[0]
	if !ok || rec.Result == nil || rec.Result.HighWater != 0 || rec.Result.Rounds != 10 {
		t.Fatalf("replay commit for cell 0: %+v", rec)
	}
	if reason := st.Quarantined[1]; reason != "boom" {
		t.Fatalf("quarantine reason = %q, want boom", reason)
	}
	if st.MaxToken != 2 {
		t.Fatalf("max token = %d, want 2", st.MaxToken)
	}
}

func TestLedgerFirstCommitWins(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	first := lease(OpCommit, 0, 1)
	first.Result.HighWater = 111
	second := lease(OpCommit, 0, 7)
	second.Result.HighWater = 999
	if err := l.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(second); err != nil {
		t.Fatal(err)
	}
	l.Close()
	st, err := ReplayLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Commits[0].Result.HighWater != 111 {
		t.Fatalf("replay kept the later commit: %+v", st.Commits[0])
	}
	if st.MaxToken != 7 {
		t.Fatalf("max token = %d, want 7", st.MaxToken)
	}
}

// TestLedgerFencesStaleWriter is the two-writer half of the fencing
// story: epochs live in the filesystem, so a second OpenLedger on the
// same directory — same process or not — supersedes the first, whose
// next append must fail with ErrFenced instead of interleaving.
func TestLedgerFencesStaleWriter(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l1 := boundLedger(t, dir)
	if err := l1.Append(lease(OpClaim, 0, 1)); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Epoch() != l1.Epoch()+1 {
		t.Fatalf("epochs not dense: %d then %d", l1.Epoch(), l2.Epoch())
	}

	err = l1.Append(lease(OpCommit, 0, 1))
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale writer append: err=%v, want ErrFenced", err)
	}

	// The successor adopts the predecessor's binding and writes freely.
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1))})
	if err := l2.Bind(grid, 2, "adv=pf seed=1 rounds=10 ell=0"); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(lease(OpCommit, 0, 2)); err != nil {
		t.Fatalf("successor append: %v", err)
	}
	st, err := l2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Commits) != 1 || st.Commits[0].Token != 2 {
		t.Fatalf("replay after takeover: %+v", st.Commits)
	}
}

func TestLedgerBindMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	l.Close()
	l2, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	err = l2.Bind(GridFingerprint([]string{Fingerprint(key(5))}), 1, "adv=other")
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("bind with different grid: err=%v, want ErrMismatch", err)
	}
}

func TestLedgerAppendBeforeBind(t *testing.T) {
	l, err := OpenLedger(filepath.Join(t.TempDir(), "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(lease(OpClaim, 0, 1)); err == nil {
		t.Fatal("append before bind succeeded")
	}
}

func TestLedgerCloseIdempotent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Append(lease(OpClaim, 0, 1)); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestLedgerTornTailEveryOffset kills the writer at every possible
// byte of the log (faultinject.TearFile simulates the torn trailing
// record) and requires every prefix to boot clean: no error, and
// exactly the commits whose full line survived. A successor then binds
// and appends a commit; the next replay must hold it beside the
// survivors, which it cannot if the append lands on the torn bytes.
func TestLedgerTornTailEveryOffset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	records := []LeaseRecord{
		lease(OpClaim, 0, 1),
		lease(OpCommit, 0, 1),
		lease(OpClaim, 1, 2),
		lease(OpCommit, 1, 2),
	}
	for _, rec := range records {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	whole, err := os.ReadFile(filepath.Join(dir, ledgerFile))
	if err != nil {
		t.Fatal(err)
	}
	full, err := ReplayLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Commits) != 2 {
		t.Fatalf("full replay found %d commits, want 2", len(full.Commits))
	}

	// survivors lists the cells whose commit line, newline included,
	// fits within the first keep bytes. Line 0 is the header.
	survivors := func(keep int) map[int]bool {
		cells, lineIdx := map[int]bool{}, 0
		for i, b := range whole {
			if b != '\n' {
				continue
			}
			if i >= keep {
				break
			}
			if lineIdx >= 1 && records[lineIdx-1].Op == OpCommit {
				cells[records[lineIdx-1].Cell] = true
			}
			lineIdx++
		}
		return cells
	}
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1))})

	for keep := 0; keep <= len(whole); keep++ {
		torn := filepath.Join(t.TempDir(), fmt.Sprintf("torn-%d", keep))
		if err := os.MkdirAll(torn, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(torn, ledgerFile)
		if err := os.WriteFile(path, whole, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.TearFile(path, int64(keep)); err != nil {
			t.Fatal(err)
		}
		st, err := ReplayLedger(torn)
		if err != nil {
			t.Fatalf("keep=%d: replay failed: %v", keep, err)
		}
		want := survivors(keep)
		if len(st.Commits) != len(want) {
			t.Fatalf("keep=%d: %d commits recovered, want %d", keep, len(st.Commits), len(want))
		}
		// A torn ledger must also reopen for writing: the successor
		// coordinator appends after the recovered prefix. Opening
		// leaves the torn bytes alone; only the new epoch's first
		// append cuts them.
		l2, err := OpenLedger(torn)
		if err != nil {
			t.Fatalf("keep=%d: reopen: %v", keep, err)
		}
		if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, whole[:keep]) {
			t.Fatalf("keep=%d: OpenLedger changed the log to %q (err %v)", keep, data, err)
		}
		if err := l2.Bind(grid, 2, "adv=pf seed=1 rounds=10 ell=0"); err != nil {
			t.Fatalf("keep=%d: bind: %v", keep, err)
		}
		if err := l2.Append(lease(OpCommit, 1, 9)); err != nil {
			t.Fatalf("keep=%d: append: %v", keep, err)
		}
		l2.Close()
		st, err = ReplayLedger(torn)
		if err != nil {
			t.Fatalf("keep=%d: replay after append: %v", keep, err)
		}
		wantToken := uint64(9)
		if want[1] {
			wantToken = 2 // the surviving commit wins
		}
		want[1] = true
		if len(st.Commits) != len(want) || st.Commits[1].Token != wantToken {
			t.Fatalf("keep=%d: after the successor's commit, replay holds %v, want cells %v with cell 1 at token %d",
				keep, st.Commits, want, wantToken)
		}
		for cell := range want {
			if _, ok := st.Commits[cell]; !ok {
				t.Fatalf("keep=%d: commit for cell %d lost", keep, cell)
			}
		}
	}
}

// TestLedgerConcurrentAppend hammers one ledger from many goroutines;
// with -race this is the data-race check for the append path.
func TestLedgerConcurrentAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	defer l.Close()
	var wg sync.WaitGroup
	const writers, each = 8, 20
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := lease(OpClaim, 0, uint64(w*each+i+1))
				rec.Worker = fmt.Sprintf("w%d", w)
				if err := l.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st, err := l.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxToken != writers*each {
		t.Fatalf("max token = %d, want %d", st.MaxToken, writers*each)
	}
}

// TestJournalSaveSyncsDirectory pins the crash-durability contract of
// the checkpoint journal: the write that creates the file — header and
// first record together — also syncs the parent directory, so the new
// file name survives a power cut; later appends sync only the file. An
// injected directory-sync failure on the creating write fails Record,
// and the record does not count.
func TestJournalSaveSyncsDirectory(t *testing.T) {
	orig := fsyncDir
	defer func() { fsyncDir = orig }()
	var synced []string
	fsyncDir = func(dir string) error {
		synced = append(synced, dir)
		return orig(dir)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1))})
	if err := j.Bind(grid, 2, "adv=pf"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Bind created the journal file: %v", err)
	}
	if _, err := record(j, 0); err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Dir(path)}; fmt.Sprint(synced) != fmt.Sprint(want) {
		t.Fatalf("creating Record synced directories %v, want %v", synced, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")); len(lines) != 2 ||
		!bytes.HasPrefix(lines[0], []byte(`{"v":`)) || !bytes.HasPrefix(lines[1], []byte(`{"op":"commit"`)) {
		t.Fatalf("new journal holds %q, want the header and one commit record", data)
	}
	synced = nil
	if _, err := record(j, 1); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 0 {
		t.Fatalf("appending Record synced directories %v, want none", synced)
	}

	// An injected directory-sync failure must fail the save loudly —
	// a checkpoint that may vanish on power loss is not a checkpoint.
	path = filepath.Join(t.TempDir(), "sweep.ckpt")
	j, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bind(grid, 2, "adv=pf"); err != nil {
		t.Fatal(err)
	}
	fsyncDir = func(dir string) error {
		return faultinject.ErrInjected
	}
	if _, err := record(j, 0); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Record with failing dir sync: err=%v, want ErrInjected", err)
	}
	if j.Len() != 0 {
		t.Fatalf("a Record whose directory sync failed counts: Len=%d", j.Len())
	}
	// The next Record starts the file over, and syncs the directory.
	fsyncDir = orig
	if n, err := record(j, 1); err != nil || n != 1 {
		t.Fatalf("Record after a failed one: n=%d err=%v", n, err)
	}
	j, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Lookup(Fingerprint(key(0))); ok || j.Len() != 1 {
		t.Fatalf("reopened journal holds %d cells (cell 0 present: %v), want only cell 1", j.Len(), ok)
	}
}
