package resume

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compaction/internal/sim"
)

func key(i int) CellKey {
	return CellKey{
		Index: i, Label: "pf", Manager: "first-fit",
		Config: sim.Config{M: 1 << 14, N: 1 << 6, C: 16, Pow2Only: true},
	}
}

// record journals cell i's result.
func record(j *Journal, i int) (int, error) {
	return j.Record(i, Fingerprint(key(i)), sim.Result{Program: "pf", Manager: "first-fit", Rounds: 10 + i, HighWater: int64(100 * i)})
}

func TestFingerprintDiscriminates(t *testing.T) {
	base := Fingerprint(key(0))
	variants := []CellKey{key(1)}
	k := key(0)
	k.Label = "other"
	variants = append(variants, k)
	k = key(0)
	k.Manager = "best-fit"
	variants = append(variants, k)
	k = key(0)
	k.Config.C = 32
	variants = append(variants, k)
	k = key(0)
	k.Config.Pow2Only = false
	variants = append(variants, k)
	k = key(0)
	k.Config.Shards = 4
	variants = append(variants, k)
	for i, v := range variants {
		if Fingerprint(v) == base {
			t.Errorf("variant %d collides with base fingerprint", i)
		}
	}
	if Fingerprint(key(0)) != base {
		t.Error("fingerprint not deterministic")
	}
}

// TestFingerprintPinned: fingerprints must not drift between builds,
// or journals and ledgers written by an older build stop resuming.
// The value predates the removal of sim.Config's free-space index
// field, whose slot Fingerprint still hashes as 0.
func TestFingerprintPinned(t *testing.T) {
	if got, want := Fingerprint(key(0)), "e1f27aab1c397eda"; got != want {
		t.Fatalf("Fingerprint(key(0)) = %s, want %s", got, want)
	}
}

// TestJournalWithRetiredConfigFieldResumes: a journal written while
// sim.Config still had an Index field carries "Index":0 in every
// result; it must open, bind to the same grid and serve its results.
func TestJournalWithRetiredConfigFieldResumes(t *testing.T) {
	const journal = `{"v":2,"grid":"2635170bd911a943","cells":1,"params":"pf M=16384"}
{"op":"commit","cell":0,"fp":"e1f27aab1c397eda","token":0,"result":{"Program":"pf","Manager":"first-fit","Config":{"M":16384,"N":64,"C":16,"Pow2Only":true,"Capacity":0,"MaxRounds":0,"Index":0,"Shards":0},"Rounds":10,"Allocs":0,"Frees":0,"Moves":0,"HighWater":4096,"MaxLive":2048,"Allocated":0,"Moved":0}}
`
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(key(0))
	if err := j.Bind(GridFingerprint([]string{fp}), 1, "pf M=16384"); err != nil {
		t.Fatal(err)
	}
	res, ok := j.Lookup(fp)
	want := sim.Result{Program: "pf", Manager: "first-fit", Config: key(0).Config, Rounds: 10, HighWater: 4096, MaxLive: 2048}
	if !ok || res != want {
		t.Fatalf("Lookup = %+v, %v; want %+v", res, ok, want)
	}
}

func TestJournalRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1))})
	if err := j.Bind(grid, 2, "adv=pf seed=1"); err != nil {
		t.Fatal(err)
	}
	if n, err := record(j, 0); err != nil || n != 1 {
		t.Fatalf("record: n=%d err=%v", n, err)
	}
	if n, err := record(j, 1); err != nil || n != 2 {
		t.Fatalf("record: n=%d err=%v", n, err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Bind(grid, 2, "adv=pf seed=1"); err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", j2.Len())
	}
	res, ok := j2.Lookup(Fingerprint(key(1)))
	if !ok {
		t.Fatal("entry 1 missing after reload")
	}
	if res.HighWater != 100 || res.Rounds != 11 {
		t.Fatalf("entry drifted through the journal: %+v", res)
	}
}

func TestJournalRefusesMismatchedGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, _ := Open(path)
	grid := GridFingerprint([]string{Fingerprint(key(0))})
	if err := j.Bind(grid, 1, "adv=pf"); err != nil {
		t.Fatal(err)
	}
	if _, err := record(j, 0); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Bind("deadbeefdeadbeef", 1, "adv=pf"); !errors.Is(err, ErrMismatch) {
		t.Fatalf("mismatched grid accepted: %v", err)
	}
	if err := j2.Bind(grid, 1, "adv=robson"); !errors.Is(err, ErrMismatch) {
		t.Fatalf("mismatched params accepted: %v", err)
	}
	if err := j2.Bind(grid, 1, "adv=pf"); err != nil {
		t.Fatalf("matching rebind refused: %v", err)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, _ := Open(path)
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1))})
	if err := j.Bind(grid, 2, ""); err != nil {
		t.Fatal(err)
	}
	record(j, 0)
	record(j, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last line mid-record, as a crash during a copy would.
	if err := os.WriteFile(path, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatalf("torn journal refused entirely: %v", err)
	}
	if j2.Len() != 1 {
		t.Fatalf("recovered %d entries from torn journal, want 1", j2.Len())
	}
	if _, ok := j2.Lookup(Fingerprint(key(0))); !ok {
		t.Fatal("intact prefix entry lost")
	}
}

func TestJournalRefusesForeignFile(t *testing.T) {
	// Terminated or not, a first line that cannot be a journal header is
	// refused, and the file is left as it was.
	for _, notes := range []string{"these are not checkpoints\n", "these are not checkpoints"} {
		path := filepath.Join(t.TempDir(), "notes.txt")
		if err := os.WriteFile(path, []byte(notes), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Fatalf("foreign file %q accepted as a journal", notes)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != notes {
			t.Fatalf("foreign file changed to %q (err %v)", data, err)
		}
	}
}

// TestJournalTornTailEveryOffset tears the journal at every byte and
// requires each prefix to open with exactly the cells whose record
// line, newline included, survived. Each torn journal must then take a
// new record: the append cuts the torn tail, so a reopen finds the new
// record after the survivors.
func TestJournalTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	grid := GridFingerprint([]string{Fingerprint(key(0)), Fingerprint(key(1)), Fingerprint(key(2))})
	if err := j.Bind(grid, 3, "adv=pf"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := record(j, i); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for keep := 0; keep <= len(whole); keep++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.ckpt", keep))
		if err := os.WriteFile(torn, whole[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		// Complete lines after the header are the surviving records.
		want := max(bytes.Count(whole[:keep], []byte("\n"))-1, 0)
		j, err := Open(torn)
		if err != nil {
			t.Fatalf("keep=%d: open: %v", keep, err)
		}
		if j.Len() != want {
			t.Fatalf("keep=%d: recovered %d cells, want %d", keep, j.Len(), want)
		}
		if err := j.Bind(grid, 3, "adv=pf"); err != nil {
			t.Fatalf("keep=%d: bind: %v", keep, err)
		}
		if n, err := record(j, 2); err != nil || n != want+1 {
			t.Fatalf("keep=%d: record: n=%d err=%v", keep, n, err)
		}
		j, err = Open(torn)
		if err != nil {
			t.Fatalf("keep=%d: reopen: %v", keep, err)
		}
		if _, ok := j.Lookup(Fingerprint(key(2))); !ok || j.Len() != want+1 {
			t.Fatalf("keep=%d: reopened journal holds %d cells (new record present: %v), want %d",
				keep, j.Len(), ok, want+1)
		}
	}
}

// TestVersion1LogsRefused: a journal or ledger in the version 1 format
// is refused with an error naming both versions, and left byte for
// byte as it was.
func TestVersion1LogsRefused(t *testing.T) {
	dir := t.TempDir()
	const v1Header = `{"v":1,"grid":"00000000deadbeef","cells":1,"params":"adv=pf"}` + "\n"
	wantErr := fmt.Sprintf("version 1, want %d", Version)
	jpath := filepath.Join(dir, "sweep.ckpt")
	v1Journal := v1Header + `{"cell":"0123456789abcdef","index":0,"label":"pf","manager":"first-fit","result":{"Rounds":3}}` + "\n"
	if err := os.WriteFile(jpath, []byte(v1Journal), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(jpath); err == nil || !strings.Contains(err.Error(), "journal "+wantErr) {
		t.Fatalf("v1 journal: err=%v, want one naming %q", err, wantErr)
	}

	ldir := filepath.Join(dir, "ledger")
	if err := os.MkdirAll(ldir, 0o755); err != nil {
		t.Fatal(err)
	}
	lpath := filepath.Join(ldir, ledgerFile)
	v1Ledger := v1Header + `{"op":"claim","cell":0,"worker":"w1","token":1}` + "\n"
	if err := os.WriteFile(lpath, []byte(v1Ledger), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLedger(ldir); err == nil || !strings.Contains(err.Error(), "journal "+wantErr) {
		t.Fatalf("v1 ledger: OpenLedger err=%v, want one naming %q", err, wantErr)
	}

	for path, want := range map[string]string{jpath: v1Journal, lpath: v1Ledger} {
		if data, err := os.ReadFile(path); err != nil || string(data) != want {
			t.Fatalf("%s changed by the refusal: %q (err %v)", path, data, err)
		}
	}
}

func TestJournalMissingAndEmptyAreFresh(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(filepath.Join(dir, "absent.ckpt"))
	if err != nil || j.Len() != 0 {
		t.Fatalf("missing journal: len=%d err=%v", j.Len(), err)
	}
	empty := filepath.Join(dir, "empty.ckpt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err = Open(empty)
	if err != nil || j.Len() != 0 {
		t.Fatalf("empty journal: len=%d err=%v", j.Len(), err)
	}
	if err := j.Bind("abc", 1, ""); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	j, _ := Open(path)
	j.Bind("abc", 1, "")
	if _, err := record(j, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("journal file still present after Remove")
	}
	if err := j.Remove(); err != nil {
		t.Fatalf("second Remove not idempotent: %v", err)
	}
}

func TestRecordBeforeBindFails(t *testing.T) {
	j, _ := Open(filepath.Join(t.TempDir(), "x.ckpt"))
	if _, err := record(j, 0); err == nil {
		t.Fatal("Record before Bind accepted")
	}
}
