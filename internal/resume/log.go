package resume

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"compaction/internal/sim"
)

// The journal's record layer (a ledger is a journal too). A log is one
// file: a header line binding it to a grid, then one JSON record per
// line.
// Records are only ever appended, each in one write followed by an
// fsync, and a line counts only once its newline is on disk. Replay
// stops at the first line that is unterminated or does not parse: that
// is the torn tail of a writer killed mid-append, and since a log has
// one writer at a time, no valid record can follow it. The next append
// first cuts the file back to the end of the last complete record, so
// a successor never glues its records onto the fragment.

// commit is the one record kind written: a completed cell's outcome.
// Op leads and always reads "commit", so a line matches the commit
// records of earlier builds, which also wrote lease records (claim,
// release, fail, fence, quarantine) that replay reads past.
type commit struct {
	Op          string      `json:"op"`
	Cell        int         `json:"cell"`
	Fingerprint string      `json:"fp"`
	Result      *sim.Result `json:"result"`
}

// header is the first line of a log.
type header struct {
	Version int    `json:"v"`
	Grid    string `json:"grid"`
	Cells   int    `json:"cells"`
	Params  string `json:"params,omitempty"`
}

// tornHeader is how every header line starts. An unterminated first
// line that is a prefix of it, or starts with it, is a header whose
// write was torn, and the log opens as fresh.
var tornHeader = []byte(`{"v":`)

// recordLog is one log file's replayed state.
type recordLog struct {
	path string
	hdr  header
	// bound is set once hdr holds the grid identity, replayed from the
	// file or adopted by bind.
	bound bool
	// end is the offset just past the last complete line: 0 while the
	// file holds no complete header. size is the file's length as last
	// seen; the bytes between end and size are a torn tail.
	end, size int64
}

// replay reads the log file, handing each complete record to each in
// order. A missing file, or one whose only line is a torn header,
// leaves the log fresh. Any other first line that is not a header of
// this Version is refused, and the file is left as it is.
func (l *recordLog) replay(each func(commit)) error {
	f, err := os.Open(l.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	// Not os.ReadFile: its size probe would add a stat to every open.
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	l.size = int64(len(data))
	line, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok && (bytes.HasPrefix(line, tornHeader) || bytes.HasPrefix(tornHeader, line)) {
		return nil
	}
	if err := json.Unmarshal(line, &l.hdr); !ok || err != nil || l.hdr.Grid == "" {
		return fmt.Errorf("resume: %s: unrecognized journal header", l.path)
	}
	if l.hdr.Version != Version {
		return fmt.Errorf("resume: %s: journal version %d, want %d", l.path, l.hdr.Version, Version)
	}
	l.bound = true
	l.end = int64(len(line) + 1)
	for {
		line, next, ok := bytes.Cut(rest, []byte{'\n'})
		var rec commit
		if !ok || json.Unmarshal(line, &rec) != nil || rec.Op == "" {
			return nil
		}
		each(rec)
		l.end += int64(len(line) + 1)
		rest = next
	}
}

// bind ties the log to a grid: a fresh log adopts the identity, a
// replayed or already bound one must match it exactly.
func (l *recordLog) bind(gridFP string, cells int, params string) error {
	want := header{Version: Version, Grid: gridFP, Cells: cells, Params: params}
	if !l.bound {
		l.hdr, l.bound = want, true
		return nil
	}
	if l.hdr != want {
		return fmt.Errorf("%w: journal %s holds grid %s (%d cells, params %q), running grid %s (%d cells, params %q)",
			ErrMismatch, l.path, l.hdr.Grid, l.hdr.Cells, l.hdr.Params, gridFP, cells, params)
	}
	return nil
}

// write appends rec to f, which must be opened with O_APPEND, in one
// write, preceded by the header line when the file holds no complete
// one yet, and syncs f. A torn tail is cut off first. When the write
// or the sync fails, its bytes count as a torn tail for the next
// append to cut.
func (l *recordLog) write(f *os.File, rec commit) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	if l.end == 0 {
		if err := enc.Encode(l.hdr); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
	}
	if err := enc.Encode(rec); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if l.size > l.end {
		if err := f.Truncate(l.end); err != nil {
			return fmt.Errorf("resume: cutting torn journal tail: %w", err)
		}
	}
	l.size = l.end + int64(b.Len())
	if _, err := f.Write(b.Bytes()); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	l.end = l.size
	return nil
}
