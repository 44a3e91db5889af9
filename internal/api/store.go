package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"voltsmooth/internal/durable"
)

// Store is the durable job store under one directory:
//
//	<dir>/jobs/<id>/job.json       submitted spec + client (written, fsynced,
//	                               and only then acknowledged with 202)
//	<dir>/jobs/<id>/journal.jsonl  the job's config-hash-pinned session
//	                               journal (internal/journal format)
//	<dir>/jobs/<id>/result.json    terminal record; its presence marks the
//	                               job finished across restarts
//	<dir>/jobs/<id>/state.json     state record: result.json's status
//	                               fields, byte length and CRC-32C, written
//	                               after it; boot and every fleet scan read
//	                               this instead of result.json
//	<dir>/jobs/<id>/result.json.corrupt
//	                               a result whose bytes stopped matching its
//	                               state record, set aside as evidence
//	<dir>/jobs/<id>/lease.json     fleet-mode ownership record (internal/lease)
//	<dir>/jobs/<id>/lease.log      lease history (claims, renewals, fences)
//	<dir>/seq                      flock-guarded job-ID counter shared by every
//	                               process on the store (AllocateID)
//
// Every write goes through durable.OS and survives process death and an
// OS crash (DESIGN §10.7). Recovery on boot is a pure function of this
// layout: Scan returns every job in submission order; a job with a result
// is terminal and served as-is, a job without one is re-enqueued and
// resumes from its journal. A job's terminal state comes from its state
// record when that is valid; a missing or corrupt record (a store written
// before state records, or a crash between the two writes) falls back to
// parsing result.json.
type Store struct {
	dir string
}

// JobRecord is the durable admission record (job.json).
type JobRecord struct {
	ID            string  `json:"id"`
	Client        string  `json:"client"`
	Spec          JobSpec `json:"spec"`
	CreatedUnixNS int64   `json:"created_unix_ns"`
}

// StateRecord is a terminal job's state record (state.json): the Result
// fields a job's status shows, the number of renders, and the byte length
// and CRC-32C of the job's result.json. It lets boot and the fleet
// scanner install a terminal job without reading its renders, and lets
// GET /jobs/{id}/result serve result.json's bytes once they check out.
type StateRecord struct {
	ID             string   `json:"id"`
	State          JobState `json:"state"`
	Error          string   `json:"error,omitempty"`
	Units          uint64   `json:"units"`
	ResumedUnits   int      `json:"resumed_units"`
	StartedUnixNS  int64    `json:"started_unix_ns,omitempty"`
	FinishedUnixNS int64    `json:"finished_unix_ns,omitempty"`
	Cached         bool     `json:"cached,omitempty"`
	CacheSource    string   `json:"cache_source,omitempty"`
	Renders        int      `json:"renders"`
	ResultBytes    int64    `json:"result_bytes"`
	ResultCRC32C   uint32   `json:"result_crc32c"`
}

// StoredJob is one Scan result: the admission record plus the terminal
// state, if the job reached one.
type StoredJob struct {
	Record JobRecord
	State  *StateRecord // nil: the job never finished — re-enqueue and resume
}

var (
	// errResultMismatch reports a result.json whose bytes differ from
	// what its state record says was written.
	errResultMismatch = errors.New("result.json does not match its state record")
	// errNoStateRecord marks a WriteResult whose result landed but whose
	// state record did not.
	errNoStateRecord = errors.New("api: result stored without its state record (boot will parse result.json)")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// OpenStore opens (creating if needed) the job store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("api: store directory is required")
	}
	if err := (durable.OS{}).MkdirAll(filepath.Join(dir, "jobs")); err != nil {
		return nil, fmt.Errorf("api: create job store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) jobDir(id string) string { return filepath.Join(s.dir, "jobs", id) }

// JournalPath returns the job's session-journal path.
func (s *Store) JournalPath(id string) string {
	return filepath.Join(s.jobDir(id), "journal.jsonl")
}

// CreateJob persists the admission record durably. It must complete
// before the submission is acknowledged: an acked job survives a crash.
func (s *Store) CreateJob(rec JobRecord) error {
	if err := (durable.OS{}).MkdirAll(s.jobDir(rec.ID)); err != nil {
		return fmt.Errorf("api: create job dir: %w", err)
	}
	return persistJSON(filepath.Join(s.jobDir(rec.ID), "job.json"), rec)
}

// WriteResult persists the terminal record atomically, so a crash
// mid-write can never leave a half-result that recovery would mistake for
// a finished job. result.json goes first — its presence is the terminal
// marker — and the state record second, so a valid record always
// describes a durable result. A failed record write leaves the result
// standing and returns an error wrapping errNoStateRecord: the job is
// terminal, and boot parses result.json instead.
func (s *Store) WriteResult(res *Result) error {
	data, err := encodeJSON(res)
	if err != nil {
		return fmt.Errorf("api: marshal result.json: %w", err)
	}
	if err := (durable.OS{}).WriteFileAtomic(s.resultPath(res.ID), data); err != nil {
		return err
	}
	rec := stateOf(res, data)
	if err := persistJSON(s.statePath(res.ID), rec); err != nil {
		return fmt.Errorf("%w: %v", errNoStateRecord, err)
	}
	return nil
}

func (s *Store) resultPath(id string) string { return filepath.Join(s.jobDir(id), "result.json") }
func (s *Store) statePath(id string) string  { return filepath.Join(s.jobDir(id), "state.json") }

// summary is the state record of res without the file facts (length and
// CRC), which only the encoded bytes carry.
func (res *Result) summary() StateRecord {
	return StateRecord{
		ID:             res.ID,
		State:          res.State,
		Error:          res.Error,
		Units:          res.Units,
		ResumedUnits:   res.ResumedUnits,
		StartedUnixNS:  res.StartedUnixNS,
		FinishedUnixNS: res.FinishedUnixNS,
		Cached:         res.Cached,
		CacheSource:    res.CacheSource,
		Renders:        len(res.Renders),
	}
}

// stateOf is the state record of res stored as the bytes data.
func stateOf(res *Result, data []byte) StateRecord {
	rec := res.summary()
	rec.ResultBytes = int64(len(data))
	rec.ResultCRC32C = crc32.Checksum(data, castagnoli)
	return rec
}

// LoadResult reads a job's terminal record; os.ErrNotExist when the job
// never reached one.
func (s *Store) LoadResult(id string) (*Result, error) {
	res, _, err := s.loadResult(id)
	return res, err
}

// loadResult is LoadResult that also returns the bytes it parsed.
func (s *Store) loadResult(id string) (*Result, []byte, error) {
	data, err := os.ReadFile(s.resultPath(id))
	if err != nil {
		return nil, nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, nil, fmt.Errorf("api: corrupt result for job %s: %w", id, err)
	}
	return &res, data, nil
}

// readState reads and validates a job's state record. Any defect — not
// parseable, another job's ID, a non-terminal state, no result bytes — is
// an error, and the caller falls back to result.json.
func (s *Store) readState(id string) (*StateRecord, error) {
	data, err := os.ReadFile(s.statePath(id))
	if err != nil {
		return nil, err
	}
	var rec StateRecord
	if err := json.Unmarshal(data, &rec); err != nil || rec.ID != id || !rec.State.terminal() || rec.ResultBytes <= 0 {
		return nil, fmt.Errorf("api: corrupt state record for job %s", id)
	}
	return &rec, nil
}

// loadState returns a job's terminal state: its state record when that
// is valid, without opening result.json; otherwise the state of a full
// parse of result.json. os.ErrNotExist when the job never reached a
// terminal record; a result.json that does not parse is an error. warn
// (may be nil) hears about a corrupt state record.
func (s *Store) loadState(id string, warn func(format string, args ...any)) (*StateRecord, error) {
	rec, err := s.readState(id)
	if err == nil {
		return rec, nil
	}
	if warn != nil && !errors.Is(err, os.ErrNotExist) {
		warn("job %s: %v; parsing result.json instead", id, err)
	}
	res, data, err := s.loadResult(id)
	if err != nil {
		return nil, err
	}
	st := stateOf(res, data)
	return &st, nil
}

// readResult returns the bytes of the result.json rec describes, after
// checking their length and CRC-32C against it. Bytes that differ are
// never returned: the error wraps errResultMismatch.
func (s *Store) readResult(rec *StateRecord) ([]byte, error) {
	data, err := os.ReadFile(s.resultPath(rec.ID))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != rec.ResultBytes || crc32.Checksum(data, castagnoli) != rec.ResultCRC32C {
		return nil, fmt.Errorf("%w (%d bytes, record says %d)", errResultMismatch, len(data), rec.ResultBytes)
	}
	return data, nil
}

// quarantineResult sets aside a result.json that no longer matches its
// state record: the file is renamed to result.json.corrupt, kept as
// evidence, and then the state record is removed. With neither left the
// job has no terminal marker, so the next boot re-runs it from its
// journal, which writes both again. The rename goes first: a crash
// between the two steps leaves a record without a result, which the next
// read quarantines again, never a bare corrupt result a boot would parse
// and trust. Already-missing files are not an error.
func (s *Store) quarantineResult(id string) error {
	p := s.resultPath(id)
	if err := (durable.OS{}).Rename(p, p+".corrupt"); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("api: set aside result.json: %w", err)
	}
	if err := (durable.OS{}).Remove(s.statePath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("api: remove state record: %w", err)
	}
	return nil
}

// Scan enumerates every stored job in submission order (IDs embed a
// zero-padded sequence number, so lexical order is submission order).
// Directories without a parseable job.json are skipped with a warning —
// a half-created dir left by a crash mid-admission was never acked, so
// dropping it breaks no promise.
func (s *Store) Scan(warn func(format string, args ...any)) ([]StoredJob, error) {
	return s.ScanSkipping(warn, nil)
}

// ScanSkipping is Scan with a skip predicate: jobs for which skip reports
// true (the caller already holds them as terminal) are left out without
// opening any of their files, so a fleet scan costs the jobs that can
// still change, not the whole store. A nil skip reads every job.
func (s *Store) ScanSkipping(warn func(format string, args ...any), skip func(id string) bool) ([]StoredJob, error) {
	if warn == nil {
		warn = func(string, ...any) {}
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("api: scan job store: %w", err)
	}
	var out []StoredJob
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		if skip != nil && skip(id) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.jobDir(id), "job.json"))
		if err != nil {
			warn("job %s: unreadable job.json, skipping: %v", id, err)
			continue
		}
		var rec JobRecord
		if err := json.Unmarshal(data, &rec); err != nil || rec.ID != id {
			warn("job %s: corrupt job.json, skipping", id)
			continue
		}
		sj := StoredJob{Record: rec}
		if st, err := s.loadState(id, warn); err == nil {
			sj.State = st
		} else if !errors.Is(err, os.ErrNotExist) {
			// A corrupt result is not trusted: treat the job as unfinished
			// and let the journal replay rebuild it bit-identically.
			warn("job %s: %v; re-running from journal", id, err)
		}
		out = append(out, sj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Record.ID < out[j].Record.ID })
	return out, nil
}

// NextSeq returns the next job sequence number: one past the highest
// sequence among stored jobs. It is a fallback for seeding the durable
// counter — allocation itself must go through AllocateID, which holds the
// store-level lock two processes can both respect.
func (s *Store) NextSeq() (int, error) {
	stored, err := s.Scan(nil)
	if err != nil {
		return 0, err
	}
	max := 0
	for _, sj := range stored {
		if n, ok := seqOf(sj.Record.ID); ok && n > max {
			max = n
		}
	}
	return max + 1, nil
}

// AllocateID hands out the next job ID under a store-level flock'd counter
// file (<dir>/seq), so any number of processes sharing the store can never
// race to the same sequence. The flock is BLOCKING — allocation is a
// microsecond transaction and every caller must get an answer — unlike the
// non-blocking claim locks of the lease layer. The counter is seeded from
// a store scan the first time a store without one allocates.
func (s *Store) AllocateID() (string, error) {
	seqPath := filepath.Join(s.dir, "seq")
	release, err := durable.OS{}.LockWait(seqPath)
	if err != nil {
		return "", fmt.Errorf("api: lock seq counter: %w", err)
	}
	defer release()

	next := 0
	data, err := os.ReadFile(seqPath)
	switch {
	case err == nil:
		n, perr := strconv.Atoi(strings.TrimSpace(string(data)))
		if perr != nil || n < 1 {
			return "", fmt.Errorf("api: corrupt seq counter %q in %s", strings.TrimSpace(string(data)), seqPath)
		}
		next = n
	case errors.Is(err, os.ErrNotExist):
		if next, err = s.NextSeq(); err != nil {
			return "", err
		}
	default:
		return "", fmt.Errorf("api: read seq counter: %w", err)
	}
	if err := persistJSON(seqPath, next+1); err != nil {
		return "", fmt.Errorf("api: advance seq counter: %w", err)
	}
	return JobID(next), nil
}

// JobID formats a sequence number as a job ID ("j000042"): zero-padded so
// lexical order is submission order.
func JobID(seq int) string { return fmt.Sprintf("j%06d", seq) }

// seqOf parses a job ID's sequence. Only "j" + decimal digits qualifies:
// anything else ("j-12", "jx", a stray directory name) must not feed the
// sequence computation, where a negative or bogus parse could poison the
// next allocation.
func seqOf(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "j")
	if !ok || digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		// All-digit but overflowing int: not a sequence we minted.
		return 0, false
	}
	return n, true
}

// persistJSON replaces path with v as indented JSON, atomically.
func persistJSON(path string, v any) error {
	data, err := encodeJSON(v)
	if err != nil {
		return fmt.Errorf("api: marshal %s: %w", filepath.Base(path), err)
	}
	return durable.OS{}.WriteFileAtomic(path, data)
}

// encodeJSON is v as the store writes it: indented JSON and a newline,
// byte for byte what writeJSON sends as a response body.
func encodeJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	return append(data, '\n'), err
}
