// Lease ledger: the distributed extension of the checkpoint journal.
//
// The Ledger is the same append-only log as the Journal (log.go), kept
// in a directory and recording every lease decision rather than only
// commits. It is designed for a coordinator that must survive its own
// crash AND defend against a predecessor that does not know it is
// dead. Two fencing mechanisms stack on the shared record layer:
//
//   - Writer epochs fence whole processes. Opening a ledger acquires
//     the next epoch by creating an epoch.<n> marker file with
//     O_EXCL — an atomic, crash-safe acquisition. Every append first
//     checks that no successor epoch exists; a stale coordinator's
//     append fails with ErrFenced instead of corrupting the log.
//   - Lease tokens fence individual workers. The coordinator stamps
//     every claim with a monotonically increasing token and records
//     it here; a zombie worker's late commit carries a superseded
//     token and is rejected upstream (and audited as an op "fence"
//     record when the coordinator chooses to log it).
//
// Appends are synced to disk record by record — a commit acknowledged
// to a worker is durable — and replay tolerates a torn tail exactly
// like the journal: every complete record before the first torn one
// is recovered. Because epochs serialize writers, a torn record is
// always the last thing a dead writer did; no valid record can follow
// it, and the new epoch's first append cuts it off.
package resume

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"compaction/internal/sim"
)

// ErrFenced reports an operation by a writer (or a lease holder) that
// has been superseded: a newer epoch owns the ledger, or a newer token
// owns the lease.
var ErrFenced = errors.New("resume: fenced: a newer writer owns this ledger")

// Op enumerates the lease-ledger record kinds.
type Op string

// The lease lifecycle operations a ledger records.
const (
	// OpClaim: a worker was granted a lease on a cell.
	OpClaim Op = "claim"
	// OpCommit: the cell completed; Result carries the outcome. The
	// first commit per cell wins; replay ignores later ones.
	OpCommit Op = "commit"
	// OpRelease: the lease was given back unfinished — graceful worker
	// drain, or coordinator-side expiry ahead of reassignment.
	OpRelease Op = "release"
	// OpFail: the cell ended as a hole after its retries; Attempt
	// carries the attempts spent and Reason the cause. Like a journal,
	// the ledger does not settle holes: replay ignores the record, so a
	// resumed coordinator runs the cell again.
	OpFail Op = "fail"
	// OpFence: audit record of a rejected stale commit (zombie worker).
	OpFence Op = "fence"
)

// LeaseRecord is one appended ledger line.
type LeaseRecord struct {
	Op          Op          `json:"op"`
	Cell        int         `json:"cell"`
	Fingerprint string      `json:"fp,omitempty"`
	Worker      string      `json:"worker,omitempty"`
	Token       uint64      `json:"token"`
	Attempt     int         `json:"attempt,omitempty"`
	Reason      string      `json:"reason,omitempty"`
	Result      *sim.Result `json:"result,omitempty"`
}

// ledgerFile is the append-only log inside a ledger directory.
const ledgerFile = "ledger.ndjson"

// epochPrefix names the epoch marker files: epoch.00000001, … The
// numbering is dense — each new writer creates exactly max+1 — so a
// writer checks for its successor with a single stat.
const epochPrefix = "epoch."

func epochName(n uint64) string {
	return fmt.Sprintf("%s%08d", epochPrefix, n)
}

// Ledger is an append-only, epoch-fenced lease log bound to one grid.
// It is safe for concurrent use.
type Ledger struct {
	mu    sync.Mutex
	dir   string
	f     *os.File
	epoch uint64
	log   recordLog
}

// OpenLedger opens (creating if needed) the ledger directory and
// acquires the next writer epoch. The returned ledger holds the epoch
// until a later OpenLedger on the same directory supersedes it, at
// which point every Append fails with ErrFenced.
func OpenLedger(dir string) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	max, err := maxEpoch(dir)
	if err != nil {
		return nil, err
	}
	// Acquire the next epoch: O_EXCL creation is atomic, so exactly one
	// contender wins each number; losers step forward and retry.
	epoch := max
	for {
		epoch++
		f, err := os.OpenFile(filepath.Join(dir, epochName(epoch)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("resume: acquiring ledger epoch: %w", err)
		}
		f.Close()
		break
	}
	path := filepath.Join(dir, ledgerFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	// Make the epoch acquisition and the log file durable before any
	// record references them.
	if err := fsyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	// Only now, holding the epoch, may this writer's first append cut
	// a torn tail.
	_, lg, err := replayLedger(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Ledger{dir: dir, f: f, epoch: epoch, log: lg}, nil
}

// maxEpoch scans the directory for the highest epoch marker.
func maxEpoch(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("resume: %w", err)
	}
	var max uint64
	for _, e := range ents {
		num, ok := strings.CutPrefix(e.Name(), epochPrefix)
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue
		}
		if n > max {
			max = n
		}
	}
	return max, nil
}

// Epoch returns this writer's fencing epoch.
func (l *Ledger) Epoch() uint64 { return l.epoch }

// Bind ties the ledger to a grid, exactly like Journal.Bind: a fresh
// ledger adopts the identity (writing the header record durably); a
// replayed one must match or Bind returns ErrMismatch.
func (l *Ledger) Bind(gridFP string, cells int, params string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	fresh := !l.log.bound
	if err := l.log.bind(gridFP, cells, params); err != nil || !fresh {
		return err
	}
	if err := l.appendLocked(); err != nil {
		l.log.bound = false
		return err
	}
	return nil
}

// Append durably appends one lease record. It fails with ErrFenced
// when a newer epoch has been acquired on the directory: the stale
// writer learns it is dead the moment it tries to write, and the log
// stays single-writer by construction.
func (l *Ledger) Append(rec LeaseRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.log.bound {
		return fmt.Errorf("resume: ledger Append before Bind")
	}
	return l.appendLocked(rec)
}

// appendLocked checks the fence, then appends recs — or, on a fresh
// ledger, just the header — through the record layer.
func (l *Ledger) appendLocked(recs ...LeaseRecord) error {
	if l.f == nil {
		return fmt.Errorf("resume: ledger is closed")
	}
	// Dense epoch numbering makes the fence check one stat: any
	// successor must have created exactly epoch+1.
	if _, err := os.Stat(filepath.Join(l.dir, epochName(l.epoch+1))); err == nil {
		return fmt.Errorf("%w (this writer holds epoch %d)", ErrFenced, l.epoch)
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("resume: checking ledger fence: %w", err)
	}
	return l.log.write(l.f, recs...)
}

// Close releases the log file handle. The epoch marker stays: epochs
// are never reused, and a closed ledger is indistinguishable from a
// crashed one — successors fence it either way.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	if err := f.Close(); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	return nil
}

// LedgerState is the outcome of replaying a ledger directory: the grid
// binding, the first commit per cell, and the high-water fencing token
// (so a resumed coordinator issues strictly newer tokens than any
// lease ever granted).
type LedgerState struct {
	Bound bool
	// Grid, Cells, Params echo the header when Bound.
	Grid   string
	Cells  int
	Params string
	// Commits maps cell index to its first committed record.
	Commits map[int]LeaseRecord
	// MaxToken is the highest token appearing in any record.
	MaxToken uint64
}

// Replay reads the ledger back. Torn trailing bytes — the signature of
// a writer killed mid-append — end the replay at the last complete
// record; everything before is recovered.
func (l *Ledger) Replay() (*LedgerState, error) {
	st, _, err := replayLedger(l.log.path)
	return st, err
}

// ReplayLedger reads the ledger log in dir without opening a writer
// epoch — a read-only inspection of the lease history.
func ReplayLedger(dir string) (*LedgerState, error) {
	st, _, err := replayLedger(filepath.Join(dir, ledgerFile))
	return st, err
}

// replayLedger folds the log at path into a LedgerState, and returns
// the replayed log for a writer to append to.
func replayLedger(path string) (*LedgerState, recordLog, error) {
	st := &LedgerState{Commits: make(map[int]LeaseRecord)}
	lg := recordLog{path: path, kind: "ledger"}
	err := lg.replay(func(rec LeaseRecord) {
		if rec.Token > st.MaxToken {
			st.MaxToken = rec.Token
		}
		if rec.Op == OpCommit {
			if _, ok := st.Commits[rec.Cell]; !ok {
				st.Commits[rec.Cell] = rec
			}
		}
	})
	if err != nil {
		return nil, lg, err
	}
	if lg.bound {
		st.Bound = true
		st.Grid, st.Cells, st.Params = lg.hdr.Grid, lg.hdr.Cells, lg.hdr.Params
	}
	return st, lg, nil
}

// RemoveLedger deletes a completed ledger directory — the analog of
// Journal.Remove once a grid finished with no holes. A missing
// directory is not an error.
func RemoveLedger(dir string) error {
	if err := os.RemoveAll(dir); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("resume: %w", err)
	}
	return nil
}
