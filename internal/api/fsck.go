package api

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"voltsmooth/internal/durable"
)

// Fsck (DESIGN §13) is the store scrubber behind `vsmoothd -fsck`: an
// offline sweep over the layout Store documents, classifying everything a
// crash can leave behind and — with repair — removing what is provably
// garbage. It is deliberately conservative: anything a live process might
// still be using (seq.lock, lock sidecars next to unfinished jobs) is
// reported but never touched, because removing a lock file races a
// concurrent locker onto a dead inode (see durable.OS.Lock).
//
// Issue classes:
//
//   - tmp orphan: a temp file (durable.IsTemp) left by a crash inside an
//     atomic replace — by the real filesystem between CreateTemp and
//     rename, or by the chaos plane's torn write. Always safe to remove —
//     rename is atomic, so an orphan was by definition never committed.
//   - stale lock: a "*.lock" flock sidecar (lease.json.lock,
//     journal.jsonl.lock) next to a TERMINAL job. Terminal jobs are never
//     claimed or resumed again, so the sidecar is dead weight; next to an
//     unfinished job the same file may be held right now and is left alone.
//   - torn cache: a cache entry LoadCached rejects (unparseable, key
//     mismatch, no renders). Serving it is already impossible — every
//     reader treats defects as a miss — so repair just deletes the dir and
//     the next identical spec re-publishes it.
//   - corrupt result: a jobs/<id>/result.json that exists but does not
//     parse. Report-only: recovery already treats it as unfinished and
//     re-runs the job from its journal, which rewrites the file — deleting
//     it here would add nothing and lose the evidence.
//   - state record: a terminal job whose state.json is missing, corrupt,
//     or disagrees with its result.json. A missing record (a store written
//     before state records, or a crash between WriteResult's two writes)
//     only costs boot a full parse; repair rewrites the record from the
//     parseable result.json, which is how an old store migrates — boot
//     itself never writes. A result.json whose bytes differ from the
//     record's length or CRC-32C cannot be trusted: repair sets it aside
//     as the server does (Store.quarantineResult), so the next boot re-runs
//     the job from its journal.

// FsckIssue is one finding: what was wrong, where, and whether this run
// repaired it.
type FsckIssue struct {
	Kind     string `json:"kind"` // tmp_orphan | stale_lock | torn_cache | corrupt_result | state_record
	Path     string `json:"path"`
	Detail   string `json:"detail,omitempty"`
	Repaired bool   `json:"repaired"`
}

// FsckReport summarizes one scrub pass.
type FsckReport struct {
	Issues   []FsckIssue `json:"issues"`
	Repaired int         `json:"repaired"`
}

// Fsck sweeps the store and returns every issue found; with repair it also
// removes what is provably safe to remove. warn receives progress lines
// (nil is fine). The scan itself only fails on an unreadable store —
// individual defective entries ARE the findings, not errors.
func (s *Store) Fsck(repair bool, warn func(format string, args ...any)) (*FsckReport, error) {
	if warn == nil {
		warn = func(string, ...any) {}
	}
	rep := &FsckReport{}
	record := func(kind, path, detail string, fix func() error) {
		iss := FsckIssue{Kind: kind, Path: path, Detail: detail}
		if repair && fix != nil {
			if err := fix(); err != nil {
				warn("fsck: repair %s: %v", path, err)
			} else {
				iss.Repaired = true
				rep.Repaired++
			}
		}
		rep.Issues = append(rep.Issues, iss)
	}

	// Temp orphans in the store root (seq counter writes land here).
	s.sweepTmp(s.dir, record)

	// Per-job sweep: temp orphans always; lock sidecars only when the job
	// is provably terminal.
	jobsDir := filepath.Join(s.dir, "jobs")
	jobs, err := os.ReadDir(jobsDir)
	if err != nil {
		return nil, fmt.Errorf("api: fsck: scan jobs: %w", err)
	}
	for _, de := range jobs {
		if !de.IsDir() {
			continue
		}
		id := de.Name()
		dir := s.jobDir(id)
		s.sweepTmp(dir, record)

		terminal := false
		if res, data, lerr := s.loadResult(id); lerr == nil {
			terminal = s.checkState(res, data, record)
		} else if !errors.Is(lerr, os.ErrNotExist) {
			record("corrupt_result", filepath.Join(dir, "result.json"), firstLine(lerr), nil)
		}
		if !terminal {
			continue
		}
		for _, lock := range []string{"lease.json.lock", "journal.jsonl.lock"} {
			p := filepath.Join(dir, lock)
			if _, serr := os.Stat(p); serr == nil {
				record("stale_lock", p, "lock sidecar next to terminal job "+id,
					func() error { return os.Remove(p) })
			}
		}
	}

	// Cache sweep: temp orphans plus entries LoadCached would reject.
	cacheDir := filepath.Join(s.dir, "cache")
	entries, err := os.ReadDir(cacheDir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("api: fsck: scan cache: %w", err)
	}
	for _, de := range entries {
		if !de.IsDir() {
			continue
		}
		fp := de.Name()
		dir := s.cacheDir(fp)
		s.sweepTmp(dir, record)
		if _, lerr := s.LoadCached(fp); lerr != nil && !errors.Is(lerr, os.ErrNotExist) {
			record("torn_cache", dir, firstLine(lerr),
				func() error { return os.RemoveAll(dir) })
		}
	}
	return rep, nil
}

// checkState records a terminal job whose state record is missing or
// disagrees with the result.json stored as data. It reports whether the
// job still counts as terminal: not once its result is found untrusted.
func (s *Store) checkState(res *Result, data []byte, record func(kind, path, detail string, fix func() error)) bool {
	if !res.State.terminal() {
		return true
	}
	want := stateOf(res, data)
	p := s.statePath(res.ID)
	rewrite := func() error { return persistJSON(p, want) }
	rec, err := s.readState(res.ID)
	switch {
	case errors.Is(err, os.ErrNotExist):
		record("state_record", p, "terminal job has no state record", rewrite)
	case err != nil:
		record("state_record", p, firstLine(err), rewrite)
	case rec.ResultBytes != want.ResultBytes || rec.ResultCRC32C != want.ResultCRC32C:
		record("state_record", p, fmt.Sprintf("%v (%d bytes, record says %d); result set aside for a re-run",
			errResultMismatch, want.ResultBytes, rec.ResultBytes), func() error { return s.quarantineResult(res.ID) })
		return false
	case *rec != want:
		record("state_record", p, "state record disagrees with result.json", rewrite)
	}
	return true
}

// sweepTmp records (and under repair, removes) atomic-replace temp
// orphans directly inside dir. A live replace's temp file lives for
// microseconds — an orphan found by an offline scrub is from a dead
// process.
func (s *Store) sweepTmp(dir string, record func(kind, path, detail string, fix func() error)) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !durable.IsTemp(name) {
			continue
		}
		p := filepath.Join(dir, name)
		record("tmp_orphan", p, "interrupted atomic write",
			func() error { return os.Remove(p) })
	}
}
