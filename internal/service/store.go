package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"compaction/internal/resume"
)

// On-disk layout under the data directory:
//
//	jobs/<id>/job.json       the admitted submission (id, tenant, spec);
//	                         written atomically BEFORE the 201 response,
//	                         so every acknowledged job survives a crash
//	jobs/<id>/journal.ckpt   the sweep's checkpoint journal (internal/
//	                         resume format); removed, with the per-cell
//	                         heatmaps, after a hole-free completion
//	jobs/<id>/status.json    the frozen terminal Status; written only
//	                         when the job ends, after the four bodies
//	                         below, so its absence is the boot-recovery
//	                         signal ("still owed work")
//	jobs/<id>/result.csv     the outcome CSV of a terminal job
//	jobs/<id>/heatmap_<k>.json  cell k's heapscope artifact, written
//	                         before the cell's checkpoint so resumed
//	                         cells serve the same bytes; removed with
//	                         the journal
//	jobs/<id>/heatmap.json   the combined heatmap of a terminal job
//	jobs/<id>/heapstats.json the /heapstats body of a terminal job
//	jobs/<id>/events.ndjson  the whole event stream of a terminal job,
//	                         its terminal state line included
//
// A terminal job serves its bodies from these files; a server keeps
// none of them in memory. All writes go through temp-file + fsync +
// rename + fsync of the directory: a crash at any instant leaves
// either the previous file or the next, never a torn one.

// The files of a terminal job's directory.
const (
	statusFile    = "status.json"
	resultFile    = "result.csv"
	heatmapFile   = "heatmap.json"
	heapStatsFile = "heapstats.json"
	eventsFile    = "events.ndjson"
)

// store persists jobs under a data directory. An empty dir means the
// server is ephemeral: nothing is written and nothing resumes.
type store struct{ dir string }

func (st store) durable() bool { return st.dir != "" }

func (st store) jobDir(id string) string {
	return filepath.Join(st.dir, "jobs", id)
}

func (st store) journalPath(id string) string {
	return filepath.Join(st.jobDir(id), "journal.ckpt")
}

// heatmapCellPath is a cell's durable heatmap artifact. It is written
// in the sweep's OnCell callback — before the cell's journal
// checkpoint — so any cell the journal restores has its artifact on
// disk, which is what makes resumed combined heatmaps byte-identical
// to uninterrupted ones.
func (st store) heatmapCellPath(id string, cell int) string {
	return filepath.Join(st.jobDir(id), fmt.Sprintf("heatmap_%d.json", cell))
}

// jobRecord is the job.json schema.
type jobRecord struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Spec   Spec   `json:"spec"`
}

// fsyncDir commits a directory's entries; a package variable so the
// store tests can observe the calls and inject failures, same seam as
// the resume journal's.
var fsyncDir = resume.SyncDir

// writeFileAtomic writes data to path via temp + fsync + rename +
// fsync(dir). Without the final directory sync the rename itself can
// roll back on crash: the caller saw success, the bytes were synced,
// but the directory entry pointing at them was still only in memory.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return fsyncDir(filepath.Dir(path))
}

func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// saveSubmission durably records an admitted job. It runs before the
// submission is acknowledged: a 201 is a promise the job outlives the
// process.
func (st store) saveSubmission(rec jobRecord) error {
	if !st.durable() {
		return nil
	}
	dir := st.jobDir(rec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if err := writeJSONAtomic(filepath.Join(dir, "job.json"), rec); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// terminalBodies are what a settled job serves: its result CSV and
// heatmap documents (nil when it has none) and its whole stream.
type terminalBodies struct {
	csv, heatmap, heapstats, events []byte
}

// saveTerminal commits a settled job: its bodies, then its terminal
// status. Writing status.json is the commit point: once it is on disk
// the job is settled, boot recovery will not re-run it, and every body
// it has is on disk beside it.
func (st store) saveTerminal(status Status, b terminalBodies) error {
	dir := st.jobDir(status.ID)
	for _, f := range []struct {
		name string
		data []byte
	}{
		{resultFile, b.csv},
		{heatmapFile, b.heatmap},
		{heapStatsFile, b.heapstats},
		{eventsFile, b.events},
	} {
		if f.data == nil {
			continue
		}
		if err := writeFileAtomic(filepath.Join(dir, f.name), f.data); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	}
	if err := writeJSONAtomic(filepath.Join(dir, statusFile), status); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// removeResumeState discards what only a resumed run reads — the
// checkpoint journal and the per-cell heatmaps — once a job of the
// given cell count settles hole-free (holes keep theirs for
// post-mortems and reruns).
func (st store) removeResumeState(id string, cells int) error {
	if !st.durable() {
		return nil
	}
	paths := []string{st.journalPath(id)}
	for k := 0; k < cells; k++ {
		paths = append(paths, st.heatmapCellPath(id, k))
	}
	for _, path := range paths {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("service: %w", err)
		}
	}
	return nil
}

// recovered is one job found on disk at boot.
type recovered struct {
	rec jobRecord
	// final is non-nil for settled jobs (status.json present); nil
	// means the job is owed work and must be re-enqueued.
	final *Status
}

// load scans the data directory: a settled job comes back from its
// status.json alone, an owed one (no status.json) from its job.json,
// in job-ID order. Unreadable entries are skipped with their error
// collected — one corrupt directory must not take the service down —
// and the highest numeric job ID is returned so new IDs never collide.
func (st store) load() (jobs []recovered, maxID int, warnings []error) {
	if !st.durable() {
		return nil, 0, nil
	}
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, []error{fmt.Errorf("service: %w", err)}
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		if n, ok := parseJobID(id); ok && n > maxID {
			maxID = n
		}
		var r recovered
		var status Status
		switch err := readJSON(filepath.Join(st.jobDir(id), statusFile), &status); {
		case err == nil:
			r = recovered{rec: jobRecord{ID: status.ID, Tenant: status.Tenant, Spec: status.Spec}, final: &status}
		case errors.Is(err, os.ErrNotExist):
			// Owed: queued or mid-flight when the process died.
			if err := readJSON(filepath.Join(st.jobDir(id), "job.json"), &r.rec); err != nil {
				warnings = append(warnings, fmt.Errorf("service: job %s: %w", id, err))
				continue
			}
		default:
			warnings = append(warnings, fmt.Errorf("service: job %s: %w", id, err))
			continue
		}
		if r.rec.ID != id {
			warnings = append(warnings, fmt.Errorf("service: job %s: its record claims id %q", id, r.rec.ID))
			continue
		}
		jobs = append(jobs, r)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].rec.ID < jobs[b].rec.ID })
	return jobs, maxID, warnings
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// formatJobID and parseJobID fix the job-ID scheme: "j" + six digits,
// zero-padded so lexical and numeric order agree (load sorts by name).
func formatJobID(n int) string { return fmt.Sprintf("j%06d", n) }

func parseJobID(id string) (int, bool) {
	s, ok := strings.CutPrefix(id, "j")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
