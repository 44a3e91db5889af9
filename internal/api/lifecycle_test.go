package api

import (
	"math/rand"
	"testing"

	"voltsmooth/internal/telemetry"
)

var (
	allEvents = []event{evAdmit, evRecover, evInstall, evFollow, evStart, evClaimLost, evRunEnded, evWriteFenced}
	allStates = []JobState{"", StateQueued, StateRunning, StateSuspended, StateDone, StateFailed, StateCanceled}
	allCauses = []stopCause{causePreempt, causeCancel, causeFence}
)

// TestLifecycleTableIsLive is the table's static property: from every
// state reachable out of the unborn state, some path still reaches a
// terminal state (no job can be stranded), and no event leaves a
// terminal state.
func TestLifecycleTableIsLive(t *testing.T) {
	successors := func(from JobState) []JobState {
		var out []JobState
		for _, ev := range allEvents {
			for _, outcome := range allStates[1:] {
				if to, ok := transition(from, ev, outcome); ok {
					out = append(out, to)
				}
			}
		}
		return out
	}
	reach := func(from JobState) map[JobState]bool {
		seen := map[JobState]bool{from: true}
		work := []JobState{from}
		for len(work) > 0 {
			s := work[0]
			work = work[1:]
			for _, to := range successors(s) {
				if !seen[to] {
					seen[to] = true
					work = append(work, to)
				}
			}
		}
		return seen
	}
	for s := range reach("") {
		if s.terminal() {
			if next := successors(s); len(next) > 0 {
				t.Errorf("terminal state %s has successors %v", s, next)
			}
			continue
		}
		canEnd := false
		for r := range reach(s) {
			canEnd = canEnd || r.terminal()
		}
		if !canEnd {
			t.Errorf("state %q is reachable but can never reach a terminal state", s)
		}
	}
}

// TestLifecycleRandomEventSequences drives seeded random event and stop
// request sequences through a job's fire/request pair and checks the
// lifecycle's dynamic properties after every step: a terminal state is
// final, a run never starts with a stop pending, only a running job keeps
// a preempt or fence cause, and a job that is not running holds no run
// cancel func. A failure names the seed and step, and replays exactly.
func TestLifecycleRandomEventSequences(t *testing.T) {
	seeds, steps := 2000, 40
	if testing.Short() {
		seeds = 300
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		jb := &job{id: "j", trace: telemetry.NewTrace(8)}
		for step := 0; step < steps; step++ {
			before, causeBefore := jb.state, jb.cause
			if rng.Intn(4) == 0 {
				jb.request(allCauses[rng.Intn(len(allCauses))])
			} else {
				ev := allEvents[rng.Intn(len(allEvents))]
				outcome := allStates[rng.Intn(len(allStates))]
				ok := jb.fire(ev, outcome, "", func() {
					if ev == evStart {
						jb.cancel = func() {}
					}
				})
				if ok && ev == evStart && causeBefore != causeNone {
					t.Fatalf("seed %d step %d: run started with stop cause %d pending", seed, step, causeBefore)
				}
			}
			if before.terminal() && (jb.state != before || jb.cause != causeBefore) {
				t.Fatalf("seed %d step %d: terminal %s moved to %s (cause %d -> %d)",
					seed, step, before, jb.state, causeBefore, jb.cause)
			}
			if jb.state != StateRunning {
				if jb.cause == causePreempt || jb.cause == causeFence {
					t.Fatalf("seed %d step %d: %s job keeps run-only cause %d", seed, step, jb.state, jb.cause)
				}
				if jb.cancel != nil && !before.terminal() {
					t.Fatalf("seed %d step %d: %s job still holds a run cancel func", seed, step, jb.state)
				}
			}
		}
	}
}

// TestStopCausePrecedence pins the request order: fence > cancel >
// preempt. A stronger request replaces a weaker one; a weaker one is
// refused and leaves the cause alone.
func TestStopCausePrecedence(t *testing.T) {
	for _, tc := range []struct {
		first, second stopCause
		want          stopCause
		accepted      bool
	}{
		{causePreempt, causeCancel, causeCancel, true},
		{causePreempt, causeFence, causeFence, true},
		{causeCancel, causeFence, causeFence, true},
		{causeCancel, causePreempt, causeCancel, false},
		{causeFence, causeCancel, causeFence, false},
		{causePreempt, causePreempt, causePreempt, false},
	} {
		jb := &job{id: "j", trace: telemetry.NewTrace(8)}
		jb.fire(evAdmit, "", "", nil)
		jb.fire(evStart, "", "", nil)
		if _, _, ok := jb.request(tc.first); !ok {
			t.Fatalf("first request %d refused on a running job", tc.first)
		}
		if _, _, ok := jb.request(tc.second); ok != tc.accepted || jb.cause != tc.want {
			t.Errorf("%d then %d: accepted=%v cause=%d, want accepted=%v cause=%d",
				tc.first, tc.second, ok, jb.cause, tc.accepted, tc.want)
		}
	}
}

// TestInstallRefusesNonTerminalResult pins that a stored result naming no
// terminal state is never installed: boot recovery re-runs such a job from
// its journal instead of serving a state the table cannot leave.
func TestInstallRefusesNonTerminalResult(t *testing.T) {
	for _, st := range []JobState{"", StateQueued, StateRunning, StateSuspended} {
		jb := &job{id: "j", trace: telemetry.NewTrace(8)}
		if jb.install(&StateRecord{ID: "j", State: st}, "") || jb.state != "" {
			t.Errorf("result in state %q installed: job is %q", st, jb.state)
		}
	}
}
