package api

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStoreScanOrderAndRecovery pins the store's recovery semantics: jobs
// come back in submission order, terminal jobs carry their results, and
// unfinished jobs come back result-less for re-enqueueing.
func TestStoreScanOrderAndRecovery(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Experiments: []string{"fig7"}, Scale: "tiny"}
	for _, id := range []string{JobID(2), JobID(10), JobID(1)} {
		if err := st.CreateJob(JobRecord{ID: id, Client: "c", Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteResult(&Result{ID: JobID(2), State: StateDone, Units: 7}); err != nil {
		t.Fatal(err)
	}

	jobs, err := st.Scan(t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("scan: %d jobs, want 3", len(jobs))
	}
	for i, want := range []string{JobID(1), JobID(2), JobID(10)} {
		if jobs[i].Record.ID != want {
			t.Errorf("scan[%d] = %s, want %s (submission order)", i, jobs[i].Record.ID, want)
		}
	}
	if jobs[1].State == nil || jobs[1].State.Units != 7 {
		t.Error("terminal job lost its result in the scan")
	}
	if jobs[0].State != nil || jobs[2].State != nil {
		t.Error("unfinished jobs grew results")
	}

	if seq, err := st.NextSeq(); err != nil || seq != 11 {
		t.Errorf("NextSeq = %d (%v), want 11", seq, err)
	}
}

// TestStoreScanSkipsCorruptRecords pins that a half-created job dir (crash
// mid-admission, never acked) and a corrupt result degrade gracefully: the
// former is skipped, the latter re-runs from the journal.
func TestStoreScanSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Experiments: []string{"fig7"}, Scale: "tiny"}

	// A healthy job with a corrupt result: treated as unfinished.
	if err := st.CreateJob(JobRecord{ID: JobID(1), Client: "c", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", JobID(1), "result.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A dir with no job.json at all: crash before the record landed.
	if err := os.MkdirAll(filepath.Join(dir, "jobs", JobID(2)), 0o755); err != nil {
		t.Fatal(err)
	}
	// A dir whose job.json disagrees with its name: skipped.
	if err := os.MkdirAll(filepath.Join(dir, "jobs", JobID(3)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", JobID(3), "job.json"), []byte(`{"id":"j000099"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	jobs, err := st.Scan(t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("scan: %d jobs, want only the healthy one", len(jobs))
	}
	if jobs[0].Record.ID != JobID(1) || jobs[0].State != nil {
		t.Errorf("scan[0] = %s (result %v), want %s unfinished", jobs[0].Record.ID, jobs[0].State, JobID(1))
	}
}

// TestQuotaBucketRefills pins the token bucket against a fake clock: a
// spent burst refills at the configured rate, and the reported Retry-After
// matches the time to the next token.
func TestQuotaBucketRefills(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newQuotas(0.5, 2, func() time.Time { return now }) // 1 token / 2s, burst 2

	for i := 0; i < 2; i++ {
		if ok, _ := q.take("c"); !ok {
			t.Fatalf("burst take %d refused", i)
		}
	}
	ok, retry := q.take("c")
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if retry <= 0 || retry > 2*time.Second {
		t.Errorf("retryAfter = %v, want (0s, 2s]", retry)
	}

	now = now.Add(2 * time.Second) // one token refilled
	if ok, _ := q.take("c"); !ok {
		t.Error("refilled bucket refused a token")
	}
	if ok, _ := q.take("c"); ok {
		t.Error("bucket granted more than the refill")
	}

	// Other clients have their own buckets.
	if ok, _ := q.take("d"); !ok {
		t.Error("fresh client refused its burst")
	}
	// Disabled quotas always admit.
	free := newQuotas(0, 1, func() time.Time { return now })
	for i := 0; i < 100; i++ {
		if ok, _ := free.take("any"); !ok {
			t.Fatal("disabled quotas refused")
		}
	}
}

// TestSeqOfRejectsMalformedIDs pins the ID parser against inputs that
// could poison the sequence computation — most importantly "j-12", whose
// negative parse used to slip through Atoi.
func TestSeqOfRejectsMalformedIDs(t *testing.T) {
	cases := []struct {
		id   string
		n    int
		want bool
	}{
		{"j000001", 1, true},
		{"j42", 42, true},
		{"j-12", 0, false},
		{"j+3", 0, false},
		{"j", 0, false},
		{"j00001x", 0, false},
		{"jobs", 0, false},
		{"x000001", 0, false},
		{"", 0, false},
		{"j 7", 0, false},
		{"j99999999999999999999999999", 0, false}, // overflows int
	}
	for _, c := range cases {
		n, ok := seqOf(c.id)
		if ok != c.want || (ok && n != c.n) {
			t.Errorf("seqOf(%q) = (%d, %v), want (%d, %v)", c.id, n, ok, c.n, c.want)
		}
	}
}

// TestAllocateIDConcurrent races many allocators — goroutines over
// separate Store handles, as separate processes would be — against one
// store: every ID must be unique, and the sequence dense from 1.
func TestAllocateIDConcurrent(t *testing.T) {
	dir := t.TempDir()
	const allocators, perAllocator = 8, 25

	var mu sync.Mutex
	seen := map[string]string{}
	var wg sync.WaitGroup
	for a := 0; a < allocators; a++ {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		who := fmt.Sprintf("alloc-%d", a)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perAllocator; i++ {
				id, err := st.AllocateID()
				if err != nil {
					t.Errorf("%s: %v", who, err)
					return
				}
				mu.Lock()
				if prev, dup := seen[id]; dup {
					t.Errorf("id %s allocated twice (%s and %s)", id, prev, who)
				}
				seen[id] = who
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != allocators*perAllocator {
		t.Fatalf("%d unique ids, want %d", len(seen), allocators*perAllocator)
	}
	for n := 1; n <= allocators*perAllocator; n++ {
		if _, ok := seen[JobID(n)]; !ok {
			t.Errorf("sequence has a hole at %s", JobID(n))
		}
	}
}

// TestAllocateIDSeedsFromExistingJobs pins the counter bootstrap: a store
// that grew jobs before the counter file existed allocates past them, and
// malformed directory names cannot drag the seed backwards.
func TestAllocateIDSeedsFromExistingJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Experiments: []string{"fig7"}, Scale: "tiny"}
	if err := st.CreateJob(JobRecord{ID: JobID(7), Client: "c", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	id, err := st.AllocateID()
	if err != nil {
		t.Fatal(err)
	}
	if id != JobID(8) {
		t.Fatalf("first allocation = %s, want %s (one past the stored max)", id, JobID(8))
	}
	if id, _ := st.AllocateID(); id != JobID(9) {
		t.Fatalf("second allocation = %s, want %s (counter, not rescan)", id, JobID(9))
	}
}

// TestStoreScanWarnPaths pins that every damaged-store shape recovery can
// meet — corrupt job.json, torn result.json, a stray non-job directory —
// warns and continues; none may abort the scan.
func TestStoreScanWarnPaths(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Experiments: []string{"fig7"}, Scale: "tiny"}

	// Healthy terminal job: the control.
	if err := st.CreateJob(JobRecord{ID: JobID(1), Client: "c", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteResult(&Result{ID: JobID(1), State: StateDone, Units: 3}); err != nil {
		t.Fatal(err)
	}
	// Corrupt job.json: must warn and skip the job.
	if err := os.MkdirAll(filepath.Join(dir, "jobs", JobID(2)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", JobID(2), "job.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Torn result.json on a healthy record: must warn and treat the job as
	// unfinished (re-run from journal), never trust the fragment.
	if err := st.CreateJob(JobRecord{ID: JobID(3), Client: "c", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", JobID(3), "result.json"), []byte(`{"id":"j0000`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A stray directory that is no job at all.
	if err := os.MkdirAll(filepath.Join(dir, "jobs", "lost+found"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A stray plain file in jobs/ (an editor backup, a tmp leftover).
	if err := os.WriteFile(filepath.Join(dir, "jobs", "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	warnings := 0
	jobs, err := st.Scan(func(format string, args ...any) {
		warnings++
		t.Logf("warn: "+format, args...)
	})
	if err != nil {
		t.Fatalf("scan aborted: %v", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("scan: %d jobs, want 2 (healthy + torn-result)", len(jobs))
	}
	if jobs[0].Record.ID != JobID(1) || jobs[0].State == nil {
		t.Errorf("scan[0] = %s (result %v), want %s terminal", jobs[0].Record.ID, jobs[0].State, JobID(1))
	}
	if jobs[1].Record.ID != JobID(3) || jobs[1].State != nil {
		t.Errorf("scan[1] = %s (result %v), want %s unfinished (torn result distrusted)", jobs[1].Record.ID, jobs[1].State, JobID(3))
	}
	// Corrupt job.json, torn result, stray dir each warn. (The stray file
	// is silently ignored: jobs are directories by definition.)
	if warnings < 3 {
		t.Errorf("%d warnings, want >= 3 (corrupt job.json, torn result, stray dir)", warnings)
	}
}

// TestWriteResultStateRecord pins the state record WriteResult leaves
// beside result.json: its fields echo the result, its length and CRC-32C
// are those of the file, and the file is byte for byte the response body
// writeJSON gives the same result — HTML-significant and non-ASCII render
// text included — so serving the file changes no GET body. A record that
// no longer parses is warned about and the scan falls back to the file.
func TestWriteResultStateRecord(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := JobID(1)
	if err := st.CreateJob(JobRecord{ID: id, Client: "c", Spec: JobSpec{Experiments: []string{"fig7"}, Scale: "tiny"}}); err != nil {
		t.Fatal(err)
	}
	res := &Result{ID: id, State: StateFailed, Error: "1/2 experiments failed: <x> & y",
		Renders:  map[string]string{"fig7": "V <= 0.9 && f > 2 GHz\n\tµs   \"q\"\n", "tab1": "t"},
		Attempts: map[string]int{"fig7": 2}, Units: 12, ResumedUnits: 3,
		StartedUnixNS: 100, FinishedUnixNS: 200, Cached: true, CacheSource: JobID(9)}
	if err := st.WriteResult(res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.resultPath(id))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, res)
	if !bytes.Equal(rec.Body.Bytes(), data) {
		t.Fatalf("result.json differs from the writeJSON body:\n%s\nvs\n%s", data, rec.Body.Bytes())
	}
	got, err := st.readState(id)
	if err != nil {
		t.Fatal(err)
	}
	want := StateRecord{ID: id, State: StateFailed, Error: res.Error, Units: 12, ResumedUnits: 3,
		StartedUnixNS: 100, FinishedUnixNS: 200, Cached: true, CacheSource: JobID(9), Renders: 2,
		ResultBytes: int64(len(data)), ResultCRC32C: crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))}
	if *got != want {
		t.Fatalf("state record %+v, want %+v", *got, want)
	}
	if served, err := st.readResult(got); err != nil || !bytes.Equal(served, data) {
		t.Fatalf("readResult = %d bytes, %v", len(served), err)
	}

	if err := os.WriteFile(st.statePath(id), []byte(`{"id":"j000001","state":"queued"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	warned := 0
	jobs, err := st.Scan(func(format string, args ...any) { warned++ })
	if err != nil || len(jobs) != 1 || jobs[0].State == nil || *jobs[0].State != want || warned != 1 {
		t.Fatalf("scan over an invalid record: %+v (%v, %d warnings), want the state of result.json and one warning", jobs, err, warned)
	}
}

// TestFleetScanSkipsKnownTerminalJobs pins the fleet scanner's skip: once
// a peer's finished job is adopted, later scans neither reread its files
// nor warn about them. Its job.json and state.json are corrupted after
// adoption — a boot scan warns about both, so a reread could not pass
// silently — and the scan must stay quiet while the job stays done.
func TestFleetScanSkipsKnownTerminalJobs(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		logs []string
	)
	s, err := New(Config{
		Store:        st,
		Fleet:        true,
		WorkerID:     "worker-b",
		ScanInterval: time.Hour, // scans are driven by hand below
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A peer admits and finishes a job.
	spec, err := JobSpec{Experiments: []string{"fig7"}, Scale: "tiny"}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.AllocateID()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateJob(JobRecord{ID: id, Client: "peer", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteResult(&Result{ID: id, State: StateDone, Renders: map[string]string{"fig7": "R"}, Units: 3}); err != nil {
		t.Fatal(err)
	}
	s.scanOnce()
	if !s.knownTerminal(id) {
		t.Fatalf("job %s not adopted as terminal by the first scan", id)
	}

	for _, name := range []string{"job.json", "state.json"} {
		if err := os.WriteFile(filepath.Join(st.jobDir(id), name), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bootWarnings := 0
	if _, err := st.Scan(func(string, ...any) { bootWarnings++ }); err != nil || bootWarnings == 0 {
		t.Fatalf("a full scan over the corrupted files gave %d warnings (%v), want some", bootWarnings, err)
	}

	mu.Lock()
	logs = nil
	mu.Unlock()
	s.scanOnce()
	s.scanOnce()
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, id) {
			t.Errorf("scan reread a known-terminal job: %q", l)
		}
	}
	if st := s.jobs[id].currentState(); st != StateDone {
		t.Errorf("job %s is %s after the scans, want %s", id, st, StateDone)
	}
}
