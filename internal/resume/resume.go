// Package resume implements durable checkpoints for long-running
// sweeps: a journal of completed cell outcomes, keyed by a
// deterministic cell fingerprint, so that a sweep killed at any
// instant — worker panic, OOM kill, Ctrl-C — resumes from every cell
// it finished.
//
// The journal and the distributed sweep's lease ledger are one log
// format (log.go): NDJSON, a header line binding the log to one
// specific grid (its fingerprint, cell count, and an opaque caller
// params string), then one record per line, appended with one write
// and one fsync each. The journal holds one commit record per
// completed cell; the ledger records every lease decision and adds
// writer epochs on top. A log whose header does not match the grid
// being run is refused rather than silently merged, so stale
// checkpoints cannot corrupt a new experiment. A torn trailing record —
// the signature of a crash mid-append — is tolerated: every complete
// record before it is recovered, and the next append cuts it off.
//
// Resume contract: the fingerprint covers the cell's index, label,
// manager and full model configuration. Program identity (adversary
// kind, seed, rounds) is NOT part of sim.Config, so callers must fold
// anything that changes the program's behavior into either the cell
// label or the journal's params string; compactsim encodes
// adversary/seed/rounds/ell in params for exactly this reason.
package resume

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"

	"compaction/internal/sim"
)

// Version is the format version of both logs, journal and ledger;
// bumped on incompatible schema changes so old files fail loudly
// instead of misparsing.
const Version = 2

// ErrMismatch reports a journal that belongs to a different grid (or
// a different program parameterization) than the one being resumed.
var ErrMismatch = errors.New("resume: journal does not match this grid")

// CellKey identifies one sweep cell for fingerprinting.
type CellKey struct {
	// Index is the cell's position in the grid. Including it keeps two
	// otherwise-identical cells (same label, manager, config) distinct.
	Index int
	// Label and Manager mirror the sweep cell's fields.
	Label, Manager string
	// Config is the full model configuration of the run.
	Config sim.Config
}

// Fingerprint returns a deterministic 64-bit FNV-1a fingerprint of the
// key, rendered as fixed-width hex. It is stable across processes and
// platforms: only explicit field values are hashed, never memory
// layout.
func Fingerprint(k CellKey) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%t|%d|%d|%d|%d",
		k.Index, k.Label, k.Manager,
		k.Config.M, k.Config.N, k.Config.C, k.Config.Pow2Only,
		k.Config.Capacity, k.Config.MaxRounds, k.Config.Index, k.Config.Shards)
	return fmt.Sprintf("%016x", h.Sum64())
}

// GridFingerprint folds the cell fingerprints (in grid order) into one
// fingerprint identifying the whole grid.
func GridFingerprint(cellFPs []string) string {
	h := fnv.New64a()
	for _, fp := range cellFPs {
		io.WriteString(h, fp)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Journal is a durable set of completed cell outcomes bound to one
// grid: a log of commit records, one per completed cell. It is safe
// for concurrent use by the sweep's worker pool, and it holds no file
// open between calls.
type Journal struct {
	mu      sync.Mutex
	log     recordLog
	commits map[string]sim.Result // by cell fingerprint
}

// Open loads the journal at path, or prepares a fresh one when the
// file does not exist or holds only a torn header. Records after a
// torn one are dropped; a foreign or version-mismatched header fails
// the open (the file is not a journal this build can extend, and
// writing to it would destroy whatever it is).
func Open(path string) (*Journal, error) {
	j := &Journal{log: recordLog{path: path, kind: "journal"}, commits: make(map[string]sim.Result)}
	if err := j.log.replay(j.add); err != nil {
		return nil, err
	}
	return j, nil
}

// add folds one commit record into the journal. The first commit per
// cell wins, as in the ledger.
func (j *Journal) add(rec LeaseRecord) {
	if _, ok := j.commits[rec.Fingerprint]; rec.Op == OpCommit && rec.Result != nil && !ok {
		j.commits[rec.Fingerprint] = *rec.Result
	}
}

// Bind ties the journal to a grid. A fresh journal adopts the
// identity; a loaded one must match it exactly or Bind returns
// ErrMismatch and the journal stays unusable for recording.
func (j *Journal) Bind(gridFP string, cells int, params string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.bind(gridFP, cells, params)
}

// Lookup returns the journaled result for a cell fingerprint.
func (j *Journal) Lookup(fp string) (sim.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	res, ok := j.commits[fp]
	return res, ok
}

// Len returns the number of journaled cells.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.commits)
}

// Record durably appends the commit record of one completed cell and
// returns the number of distinct cells now journaled. The first Record
// creates the file, writing the header and the record in one write,
// and syncs the parent directory so the new name survives a crash.
func (j *Journal) Record(cell int, fp string, res sim.Result) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.log.bound {
		return 0, fmt.Errorf("resume: Record before Bind")
	}
	creating := j.log.end == 0
	f, err := os.OpenFile(j.log.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("resume: %w", err)
	}
	rec := LeaseRecord{Op: OpCommit, Cell: cell, Fingerprint: fp, Result: &res}
	if err := j.log.write(f, rec); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("resume: %w", err)
	}
	if creating {
		if err := fsyncDir(filepath.Dir(j.log.path)); err != nil {
			// The file may not survive a crash, so nothing in it counts:
			// the next Record starts it over.
			j.log.end = 0
			return 0, fmt.Errorf("resume: syncing journal directory: %w", err)
		}
	}
	j.add(rec)
	return len(j.commits), nil
}

// SyncDir syncs a directory's entries to stable storage, so a file
// just created or renamed into it survives a crash. Exported so every
// package that renames durable state into place (internal/service's
// job store) closes the same window this package closes when it
// creates a log.
func SyncDir(dir string) error { return fsyncDir(dir) }

// fsyncDir syncs a directory's entries to stable storage. It is a
// package variable so the durability regression tests can observe the
// calls and inject failures.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("resume: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	return nil
}

// Remove deletes the journal file, typically after the sweep it
// guarded completed with no holes, and forgets its records. A missing
// file is not an error.
func (j *Journal) Remove() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := os.Remove(j.log.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("resume: %w", err)
	}
	// The journal stays bound; a later Record starts a new file.
	j.log.end, j.log.size = 0, 0
	clear(j.commits)
	return nil
}
