package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// bootOver starts a server over the store in dir, serving over HTTP;
// noCache turns the result cache off.
func bootOver(t *testing.T, dir string, noCache bool) (*Server, *httptest.Server) {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, DefaultSessionWorkers: 4, Logf: t.Logf, DisableCache: noCache})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// stop shuts a bootOver server down (Cleanup tolerates the second call).
func stop(s *Server, hs *httptest.Server) {
	hs.Close()
	s.Close()
}

// fetch GETs url and returns the status code and the body.
func fetch(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// runToEnd submits spec and waits until the job is terminal.
func runToEnd(t *testing.T, s *Server, hs *httptest.Server, spec JobSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack map[string]string
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, %v", resp.StatusCode, err)
	}
	waitState(t, s, ack["id"])
	return ack["id"]
}

// waitState polls until job id is terminal and returns its state.
func waitState(t *testing.T, s *Server, id string) JobState {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if jb, ok := s.lookup(id); ok {
			if st := jb.currentState(); st.terminal() {
				return st
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return ""
}

// TestResultBodySameFromMemoryAndDisk: the GET /jobs/{id}/result body of
// a job served from memory right after it finished is byte-identical to
// the body served from result.json after a restart, and the restarted
// server holds the state record, not the renders.
func TestResultBodySameFromMemoryAndDisk(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := bootOver(t, dir, false)
	id := runToEnd(t, s1, hs1, JobSpec{Experiments: []string{"fig7"}, Scale: "tiny"})
	code, fromMemory := fetch(t, hs1.URL+"/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result from memory: HTTP %d: %s", code, fromMemory)
	}
	stop(s1, hs1)

	s2, hs2 := bootOver(t, dir, false)
	jb, _ := s2.lookup(id)
	if jb.result != nil || jb.stored == nil {
		t.Fatalf("job installed from the store keeps result=%v stored=%v; want only the state record", jb.result != nil, jb.stored)
	}
	code, fromDisk := fetch(t, hs2.URL+"/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result from disk: HTTP %d: %s", code, fromDisk)
	}
	if !bytes.Equal(fromMemory, fromDisk) {
		t.Fatalf("result body differs between memory and disk:\n%s\nvs\n%s", fromMemory, fromDisk)
	}
}

// TestCorruptResultUnderValidRecordIsNeverServed: one byte of result.json
// flipped after boot — a flip that still parses, so only the state
// record's CRC can tell — is answered 500, never 200. The result is set
// aside and the record removed, so the next boot re-runs the job from its
// journal (the result cache is off, so nothing else can finish it) and
// serves the same renders again.
func TestCorruptResultUnderValidRecordIsNeverServed(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := bootOver(t, dir, true)
	id := runToEnd(t, s1, hs1, JobSpec{Experiments: []string{"fig9"}, Scale: "tiny"})
	var want Result
	if code, body := fetch(t, hs1.URL+"/jobs/"+id+"/result"); code != http.StatusOK || json.Unmarshal(body, &want) != nil {
		t.Fatalf("GET result: HTTP %d", code)
	}
	stop(s1, hs1)

	s2, hs2 := bootOver(t, dir, true)
	st := s2.store
	path := st.resultPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a letter inside the render text, not one of an escape like
	// \n: the file still parses.
	i := bytes.Index(data, []byte(`"renders"`)) + 40
	for !('a' <= data[i] && data[i] <= 'z') || data[i-1] == '\\' {
		i++
	}
	data[i] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadResult(id); err != nil {
		t.Fatalf("the flipped result no longer parses (%v); the test needs a flip only the CRC sees", err)
	}

	for n := 0; n < 2; n++ {
		if code, body := fetch(t, hs2.URL+"/jobs/"+id+"/result"); code != http.StatusInternalServerError {
			t.Fatalf("GET %d of a corrupt result: HTTP %d, want 500: %.200s", n, code, body)
		}
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt result not set aside: %v", err)
	}
	for _, gone := range []string{path, st.statePath(id)} {
		if _, err := os.Stat(gone); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s still present after the mismatch (%v)", filepath.Base(gone), err)
		}
	}
	stop(s2, hs2)

	s3, hs3 := bootOver(t, dir, true)
	if got := waitState(t, s3, id); got != StateDone {
		t.Fatalf("re-run ended %s", got)
	}
	var again Result
	if code, body := fetch(t, hs3.URL+"/jobs/"+id+"/result"); code != http.StatusOK || json.Unmarshal(body, &again) != nil {
		t.Fatalf("GET result after the re-run: HTTP %d", code)
	}
	if again.ResumedUnits == 0 {
		t.Error("the re-run replayed nothing from the journal")
	}
	if !reflect.DeepEqual(again.Renders, want.Renders) {
		t.Error("renders after the re-run differ from the original run's")
	}
	if _, err := st.readState(id); err != nil {
		t.Errorf("the re-run wrote no valid state record: %v", err)
	}
}

// storeTree maps every file under dir to its size, mode and mtime.
func storeTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		tree[p] = fmt.Sprint(fi.Mode(), fi.ModTime(), fi.Size())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestStoreWithoutStateRecordsBootsReadOnly: a store written before state
// records existed — result.json only — boots into the same job table and
// serves the same result bytes as the same store with records, through
// the full-parse fallback and with no write at boot or on GET. fsck
// reports the missing records and -fsck-repair writes them.
func TestStoreWithoutStateRecordsBootsReadOnly(t *testing.T) {
	withRecords, without := t.TempDir(), t.TempDir()
	renders := map[string]string{"fig7": "a <table> & more\n", "tab1": "é   x\n"}
	for _, dir := range []string{withRecords, without} {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, state := range []JobState{StateDone, StateFailed, StateCanceled} {
			id := JobID(i + 1)
			spec, _ := JobSpec{Experiments: []string{"fig7", "tab1"}, Scale: "tiny"}.Validate()
			if err := st.CreateJob(JobRecord{ID: id, Client: "c", Spec: spec, CreatedUnixNS: 5}); err != nil {
				t.Fatal(err)
			}
			res := &Result{ID: id, State: state, Renders: renders, Units: 9, ResumedUnits: 2,
				StartedUnixNS: 10, FinishedUnixNS: 20, Cached: i == 0, CacheSource: "j000042"}
			if state != StateDone {
				res.Error, res.Renders = "x", nil
			}
			if err := st.WriteResult(res); err != nil {
				t.Fatal(err)
			}
			if dir == without {
				if err := os.Remove(st.statePath(id)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	serve := func(dir string) ([]Status, [][]byte) {
		s, hs := bootOver(t, dir, false)
		defer stop(s, hs)
		var bodies [][]byte
		for _, id := range s.order {
			code, body := fetch(t, hs.URL+"/jobs/"+id+"/result")
			if code != http.StatusOK {
				t.Fatalf("%s: GET %s: HTTP %d", dir, id, code)
			}
			bodies = append(bodies, body)
		}
		return s.statuses(), bodies
	}
	wantStatus, wantBodies := serve(withRecords)
	before := storeTree(t, without)
	gotStatus, gotBodies := serve(without)
	if !reflect.DeepEqual(gotStatus, wantStatus) {
		t.Errorf("job table without records:\n%+v\nwith:\n%+v", gotStatus, wantStatus)
	}
	if !reflect.DeepEqual(gotBodies, wantBodies) {
		t.Error("result bodies differ between the store with and without state records")
	}
	if after := storeTree(t, without); !reflect.DeepEqual(after, before) {
		t.Errorf("boot and GETs changed the store:\nbefore %v\nafter  %v", before, after)
	}

	st, _ := OpenStore(without)
	rep, err := st.Fsck(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 3 {
		t.Fatalf("fsck found %+v, want 3 missing state records", rep.Issues)
	}
	for _, iss := range rep.Issues {
		if iss.Kind != "state_record" || iss.Repaired {
			t.Errorf("fsck finding %+v, want an unrepaired state_record", iss)
		}
	}
	if rep, _ = st.Fsck(true, nil); rep.Repaired != 3 {
		t.Fatalf("fsck repair fixed %d of %+v", rep.Repaired, rep.Issues)
	}
	for i := 1; i <= 3; i++ {
		if _, err := st.readState(JobID(i)); err != nil {
			t.Errorf("after repair: %v", err)
		}
	}
	if gotStatus, gotBodies = serve(without); !reflect.DeepEqual(gotStatus, wantStatus) || !reflect.DeepEqual(gotBodies, wantBodies) {
		t.Error("the repaired store serves another job table or other bytes")
	}
}
