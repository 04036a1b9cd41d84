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

// commitCell records cell i with the given high-water mark.
func commitCell(l *Ledger, i int, hw int64) error {
	_, err := l.Record(i, Fingerprint(key(i)), sim.Result{Program: "pf", Manager: "first-fit", Rounds: 10, HighWater: hw})
	return err
}

// highWater looks cell i up in the ledger, -1 when it holds no commit.
func highWater(l *Ledger, i int) int64 {
	res, ok := l.Lookup(Fingerprint(key(i)))
	if !ok {
		return -1
	}
	return res.HighWater
}

func TestLedgerRoundtripAndReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	if err := commitCell(l, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := boundLedger(t, dir)
	defer l2.Close()
	if l2.Len() != 1 || highWater(l2, 0) != 100 || highWater(l2, 1) != -1 {
		t.Fatalf("replayed ledger: %d cells, high water %d and %d; want cell 0 alone at 100",
			l2.Len(), highWater(l2, 0), highWater(l2, 1))
	}
}

func TestLedgerFirstCommitWins(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	if err := commitCell(l, 0, 111); err != nil {
		t.Fatal(err)
	}
	if err := commitCell(l, 0, 999); err != nil {
		t.Fatal(err)
	}
	if hw := highWater(l, 0); hw != 111 {
		t.Fatalf("Lookup kept the later commit: high water %d", hw)
	}
	l.Close()
	l2 := boundLedger(t, dir)
	defer l2.Close()
	if hw := highWater(l2, 0); hw != 111 || l2.Len() != 1 {
		t.Fatalf("replay kept the later commit: high water %d, %d cells", hw, l2.Len())
	}
}

// TestLedgerFencesStaleWriter is the two-writer half of the fencing
// story: epochs live in the filesystem, so a second OpenLedger on the
// same directory — same process or not — supersedes the first, whose
// next Record must fail with ErrFenced instead of interleaving.
func TestLedgerFencesStaleWriter(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l1 := boundLedger(t, dir)
	if err := commitCell(l1, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := l1.CheckFence(); err != nil {
		t.Fatalf("sole writer fenced: %v", err)
	}

	l2, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Epoch() != l1.Epoch()+1 {
		t.Fatalf("epochs not dense: %d then %d", l1.Epoch(), l2.Epoch())
	}

	if err := l1.CheckFence(); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale writer fence check: err=%v, want ErrFenced", err)
	}
	if err := commitCell(l1, 1, 200); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale writer Record: err=%v, want ErrFenced", err)
	}

	// The successor adopts the predecessor's binding and writes freely.
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1))})
	if err := l2.Bind(grid, 2, "adv=pf seed=1 rounds=10 ell=0"); err != nil {
		t.Fatal(err)
	}
	if err := commitCell(l2, 1, 300); err != nil {
		t.Fatalf("successor Record: %v", err)
	}
	l3, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Len() != 2 || highWater(l3, 0) != 100 || highWater(l3, 1) != 300 {
		t.Fatalf("replay after takeover: %d cells, high water %d and %d; want 100 and 300",
			l3.Len(), highWater(l3, 0), highWater(l3, 1))
	}
}

// TestLedgerBindMismatch: a ledger, like a journal, writes its header
// with its first commit, so the ledger commits a cell before a
// successor binds it to another grid.
func TestLedgerBindMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	if err := commitCell(l, 0, 100); err != nil {
		t.Fatal(err)
	}
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

func TestLedgerRecordBeforeBind(t *testing.T) {
	l, err := OpenLedger(filepath.Join(t.TempDir(), "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := commitCell(l, 0, 100); err == nil {
		t.Fatal("Record before Bind succeeded")
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
	if err := commitCell(l, 0, 100); err == nil {
		t.Fatal("Record after close succeeded")
	}
}

// TestLedgerTornTailEveryOffset kills the writer at every possible
// byte of the log (faultinject.TearFile simulates the torn trailing
// record) and requires every prefix to boot clean: no error, and
// exactly the commits whose full line survived. A successor then binds
// and records a commit for cell 1; a reopen must hold it beside the
// survivors, which it cannot if the append lands on the torn bytes,
// and a surviving commit for cell 1 must win over it.
func TestLedgerTornTailEveryOffset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := boundLedger(t, dir)
	for i := 0; i < 2; i++ {
		if err := commitCell(l, i, int64(100*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	whole, err := os.ReadFile(filepath.Join(dir, ledgerFile))
	if err != nil {
		t.Fatal(err)
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
		// Complete lines after the header are the surviving commits,
		// cell 0's first.
		want := max(bytes.Count(whole[:keep], []byte("\n"))-1, 0)
		// Opening replays without writing; only the new epoch's first
		// Record cuts the torn bytes.
		l2, err := OpenLedger(torn)
		if err != nil {
			t.Fatalf("keep=%d: reopen: %v", keep, err)
		}
		if l2.Len() != want {
			t.Fatalf("keep=%d: %d commits recovered, want %d", keep, l2.Len(), want)
		}
		if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, whole[:keep]) {
			t.Fatalf("keep=%d: OpenLedger changed the log to %q (err %v)", keep, data, err)
		}
		if err := l2.Bind(grid, 2, "adv=pf seed=1 rounds=10 ell=0"); err != nil {
			t.Fatalf("keep=%d: bind: %v", keep, err)
		}
		if err := commitCell(l2, 1, 9); err != nil {
			t.Fatalf("keep=%d: record: %v", keep, err)
		}
		l2.Close()
		l3, err := OpenLedger(torn)
		if err != nil {
			t.Fatalf("keep=%d: reopen after record: %v", keep, err)
		}
		wantHW := map[int]int64{0: -1, 1: 9}
		if want >= 1 {
			wantHW[0] = 100
		}
		if want == 2 {
			wantHW[1] = 200 // the surviving commit wins
		}
		for cell, hw := range wantHW {
			if got := highWater(l3, cell); got != hw {
				t.Fatalf("keep=%d: after the successor's commit, cell %d holds high water %d, want %d", keep, cell, got, hw)
			}
		}
		l3.Close()
	}
}

// TestLedgerConcurrentRecord records from many goroutines into one
// ledger; with -race this is the data-race check for the fenced
// append path.
func TestLedgerConcurrentRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 20
	fps := make([]string, writers*each)
	for i := range fps {
		fps[i] = Fingerprint(key(i))
	}
	if err := l.Bind(GridFingerprint(fps), len(fps), "adv=pf"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * each; i < (w+1)*each; i++ {
				if _, err := l.Record(i, fps[i], sim.Result{Rounds: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != writers*each {
		t.Fatalf("%d cells recorded, want %d", l.Len(), writers*each)
	}
	l.Close()
	l2, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != writers*each {
		t.Fatalf("%d cells replayed, want %d", l2.Len(), writers*each)
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
