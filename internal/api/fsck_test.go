package api

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"voltsmooth/internal/chaos"
	"voltsmooth/internal/lease"
)

// TestFsckRepairsChaosKillInsideAtomicWrite: a seeded kill inside the
// chaos plane's atomic replace — here the first lease write of a claim —
// leaves a torn temp file next to lease.json. Fsck must report it as a
// tmp_orphan, and repair must remove it.
func TestFsckRepairsChaosKillInsideAtomicWrite(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := JobID(1)
	spec := JobSpec{Experiments: []string{"fig7"}, Scale: "tiny"}
	if err := st.CreateJob(JobRecord{ID: id, Client: "c", Spec: spec}); err != nil {
		t.Fatal(err)
	}

	// Op 1 is the claim's lease write: the lock and the read of a lease
	// that does not exist yet draw no op.
	plane := chaos.NewFS(chaos.Plan{Seed: 1, KillAtOp: 1}, nil)
	m := &lease.Manager{WorkerID: "w1", TTL: time.Second, FS: plane}
	if _, err := m.Claim(st.jobDir(id), id); !errors.Is(err, chaos.ErrKilled) {
		t.Fatalf("claim through the plane returned %v, want ErrKilled", err)
	}

	rep, err := st.Fsck(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != "tmp_orphan" || rep.Issues[0].Repaired {
		t.Fatalf("fsck found %+v, want one unrepaired tmp_orphan", rep.Issues)
	}

	rep, err = st.Fsck(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("fsck repair fixed %d issues (%+v), want 1", rep.Repaired, rep.Issues)
	}
	if rep, _ = st.Fsck(false, nil); len(rep.Issues) != 0 {
		t.Fatalf("fsck after repair still finds %+v", rep.Issues)
	}
}

// TestFsckStateRecords: fsck reports a terminal job whose state record is
// missing, corrupt, or names other fields than its result.json, and
// repair rewrites each from the parseable result; a result.json whose
// bytes differ from its record's CRC is reported and, under repair, set
// aside so the next boot re-runs the job. Unfinished jobs need no record.
func TestFsckStateRecords(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Experiments: []string{"fig7"}, Scale: "tiny"}
	for i := 1; i <= 5; i++ {
		if err := st.CreateJob(JobRecord{ID: JobID(i), Client: "c", Spec: spec}); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			break // unfinished
		}
		if err := st.WriteResult(&Result{ID: JobID(i), State: StateDone, Units: uint64(i),
			Renders: map[string]string{"fig7": "render text"}}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]*StateRecord{}
	for i := 1; i <= 4; i++ {
		want[JobID(i)], _ = st.readState(JobID(i))
	}
	if err := os.Remove(st.statePath(JobID(1))); err != nil { // missing
		t.Fatal(err)
	}
	if err := os.WriteFile(st.statePath(JobID(2)), []byte("{torn"), 0o644); err != nil { // corrupt
		t.Fatal(err)
	}
	other := *want[JobID(3)]
	other.Units = 99
	if err := persistJSON(st.statePath(JobID(3)), other); err != nil { // fields disagree
		t.Fatal(err)
	}
	flipped, _ := os.ReadFile(st.resultPath(JobID(4))) // bytes disagree
	flipped[bytes.Index(flipped, []byte("render text"))] ^= 0x01
	if err := os.WriteFile(st.resultPath(JobID(4)), flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := st.Fsck(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, iss := range rep.Issues {
		if iss.Kind != "state_record" || iss.Repaired {
			t.Errorf("finding %+v, want an unrepaired state_record", iss)
		}
		found = append(found, filepath.Base(filepath.Dir(iss.Path)))
	}
	if !reflect.DeepEqual(found, []string{JobID(1), JobID(2), JobID(3), JobID(4)}) {
		t.Fatalf("fsck flagged jobs %v, want the four damaged ones", found)
	}

	if rep, err = st.Fsck(true, nil); err != nil || rep.Repaired != 4 {
		t.Fatalf("fsck repair fixed %d of %+v (%v)", rep.Repaired, rep.Issues, err)
	}
	for i := 1; i <= 3; i++ {
		if got, err := st.readState(JobID(i)); err != nil || *got != *want[JobID(i)] {
			t.Errorf("%s: repaired record %+v (%v), want %+v", JobID(i), got, err, want[JobID(i)])
		}
	}
	if _, err := os.Stat(st.resultPath(JobID(4)) + ".corrupt"); err != nil {
		t.Errorf("mismatched result not set aside: %v", err)
	}
	jobs, err := st.Scan(t.Logf)
	if err != nil || len(jobs) != 5 || jobs[3].State != nil {
		t.Fatalf("after repair the job with the mismatched result is not unfinished: %+v (%v)", jobs, err)
	}
	if rep, _ = st.Fsck(false, nil); len(rep.Issues) != 0 {
		t.Fatalf("fsck after repair still finds %+v", rep.Issues)
	}
}
