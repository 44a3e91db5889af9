package api

import (
	"math/rand"
	"testing"
)

// TestDedupLeaderIgnoresTerminalJobs pins the dedup leader over a mix of
// terminal, canceling and queued jobs: it is the earliest live job in
// submission order with the fingerprint — the rule the whole-table walk
// it replaced applied — at every step of a seeded sequence of
// admissions, terminal transitions and cancels. Terminal jobs never stay
// in the index a lookup walks, so a server holding thousands of them
// pays nothing for them on admission.
func TestDedupLeaderIgnoresTerminalJobs(t *testing.T) {
	specs := []JobSpec{
		{Experiments: []string{"fig7"}, Scale: "tiny"},
		{Experiments: []string{"fig8"}, Scale: "tiny"},
		{Experiments: []string{"fig7"}, Scale: "tiny", FaultSeed: 3},
	}
	var fps []string
	for _, sp := range specs {
		fps = append(fps, sp.ConfigFingerprint())
	}
	s := &Server{jobs: map[string]*job{}, live: map[string][]*job{}}

	// reference is the walk over every job the index replaced.
	reference := func(fp string) *job {
		for _, id := range s.order {
			jb := s.jobs[id]
			if jb.fingerprint == fp && !jb.state.terminal() && jb.cause != causeCancel {
				return jb
			}
		}
		return nil
	}
	// Boot over a store of terminal jobs: none enters the index.
	seq := 0
	add := func(spec JobSpec, terminal bool) *job {
		seq++
		jb := newJob(JobRecord{ID: JobID(seq), Spec: spec}, 8)
		if terminal {
			jb.install(&StateRecord{ID: jb.id, State: StateDone}, "")
		} else {
			jb.fire(evAdmit, "", "", nil)
		}
		s.register(jb)
		return jb
	}
	for i := 0; i < 1000; i++ {
		add(specs[i%len(specs)], true)
	}
	if len(s.live) != 0 {
		t.Fatalf("terminal jobs entered the dedup index: %d fingerprints", len(s.live))
	}

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 1500; step++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(s.order) == 1000:
			add(specs[rng.Intn(len(specs))], rng.Intn(4) == 0)
		case r < 7:
			if jb := s.jobs[s.order[1000+rng.Intn(len(s.order)-1000)]]; !jb.currentState().terminal() {
				outcome := []JobState{StateDone, StateFailed, StateCanceled}[rng.Intn(3)]
				jb.fire(evRunEnded, outcome, "", nil)
			}
		default:
			jb := s.jobs[s.order[1000+rng.Intn(len(s.order)-1000)]]
			jb.request(causeCancel)
		}
		for _, fp := range fps {
			want := reference(fp)
			if got := s.dedupLeader(fp); got != want {
				t.Fatalf("step %d: leader of %.8s is %s, want %s", step, fp, idOf(got), idOf(want))
			}
			for _, jb := range s.live[fp] {
				if jb.currentState().terminal() {
					t.Fatalf("step %d: terminal job %s left in the index after a lookup", step, jb.id)
				}
			}
		}
	}
}

// idOf names a job for a failure message; "none" for nil.
func idOf(jb *job) string {
	if jb == nil {
		return "none"
	}
	return jb.id
}
