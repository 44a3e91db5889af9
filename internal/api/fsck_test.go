package api

import (
	"errors"
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
