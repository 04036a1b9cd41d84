// Lease ledger: the distributed sweep's checkpoint journal.
//
// A Ledger is a Journal (resume.go) kept in a directory, at
// ledger.ndjson, and holding the same commit records, one per
// committed cell. It is designed for a coordinator that must survive its own
// crash AND defend against a predecessor that does not know it is
// dead. Two fencing mechanisms stack:
//
//   - Writer epochs fence whole processes. Opening a ledger acquires
//     the next epoch by creating an epoch.<n> marker file with
//     O_EXCL — an atomic, crash-safe acquisition. Every Record first
//     checks that no successor epoch exists; a stale coordinator's
//     commit fails with ErrFenced instead of corrupting the log, and
//     the coordinator checks the same fence before it grants a lease
//     or settles a hole.
//   - Lease tokens fence individual workers. The coordinator stamps
//     every claim with a monotonically increasing token, scoped by its
//     epoch (it issues tokens above Epoch()<<32), so a successor's
//     tokens exceed every token a predecessor issued; a zombie
//     worker's late commit carries a superseded token and is rejected
//     upstream, never written here.
//
// Replay tolerates a torn tail exactly like the journal's: every
// complete record before the first torn one is recovered. Because
// epochs serialize writers, a torn record is always the last thing a
// dead writer did; no valid record can follow it, and the new epoch's
// first Record cuts it off.
package resume

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
)

// ErrFenced reports an operation by a writer (or a lease holder) that
// has been superseded: a newer epoch owns the ledger, or a newer token
// owns the lease.
var ErrFenced = errors.New("resume: fenced: a newer writer owns this ledger")

// ledgerFile is the journal inside a ledger directory.
const ledgerFile = "ledger.ndjson"

// epochPrefix names the epoch marker files: epoch.00000001, … The
// numbering is dense — each new writer creates exactly max+1 — so a
// writer checks for its successor with a single stat.
const epochPrefix = "epoch."

func epochName(n uint64) string {
	return fmt.Sprintf("%s%08d", epochPrefix, n)
}

// Ledger is an epoch-fenced journal bound to one grid. It is safe for
// concurrent use.
type Ledger struct {
	*Journal
	epoch uint64
	// successor is the marker the next writer creates: epoch+1's.
	successor string
	closed    atomic.Bool
}

// OpenLedger opens (creating if needed) the ledger directory, acquires
// the next writer epoch and loads the journal. The returned ledger
// holds the epoch until a later OpenLedger on the same directory
// supersedes it, at which point every Record fails with ErrFenced.
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
	// Make the epoch acquisition durable before any record relies on
	// it.
	if err := fsyncDir(dir); err != nil {
		return nil, err
	}
	// Only now, holding the epoch, may this writer's first Record cut
	// a torn tail.
	j, err := Open(filepath.Join(dir, ledgerFile))
	if err != nil {
		return nil, err
	}
	l := &Ledger{Journal: j, epoch: epoch, successor: filepath.Join(dir, epochName(epoch+1))}
	j.fence = l.CheckFence
	return l, nil
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

// CheckFence returns ErrFenced once a later OpenLedger on the
// directory has superseded this writer, and an error once the ledger
// is closed. Record checks it before every append; a stale writer
// learns it is dead the moment it tries to write, and the log stays
// single-writer by construction.
func (l *Ledger) CheckFence() error {
	if l.closed.Load() {
		return fmt.Errorf("resume: ledger is closed")
	}
	// Dense epoch numbering makes the check one stat: any successor
	// must have created exactly epoch+1.
	if _, err := os.Stat(l.successor); err == nil {
		return fmt.Errorf("%w (this writer holds epoch %d)", ErrFenced, l.epoch)
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("resume: checking ledger fence: %w", err)
	}
	return nil
}

// Close ends this writer: every later Record fails. The epoch marker
// stays: epochs are never reused, and a closed ledger is
// indistinguishable from a crashed one — successors fence it either
// way. Close holds no resource, so it never fails and may be called
// again.
func (l *Ledger) Close() error {
	l.closed.Store(true)
	return nil
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
