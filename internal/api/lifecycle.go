package api

import (
	"time"

	"voltsmooth/internal/telemetry"
)

// The job lifecycle (DESIGN §10.1) is one transition function over one
// table, below. Every site that moves a job raises an event here; nothing
// else assigns job.state. Each accepted transition emits the job-scoped
// `api.job.<state>` trace event and wakes SSE watchers — except a birth
// out of the unborn zero state, which nobody can be watching (and which a
// boot over thousands of stored jobs should not pay a trace write for).
// Terminal states have no row: they are final.
//
// Stop requests do not move the state; they set the job's stop cause,
// which the run's outcome reads when it unwinds. A request is accepted
// only from the states listed in requests and only when it outranks the
// cause already set: fence > cancel > preempt. Shutdown is read from the
// server's root context instead; the outcome checks fence, then shutdown
// (unless a cancel is pending), then cancel, then preempt. A run may not
// start while a cancel is pending; leaving running clears the cause
// unless it is a cancel, which stays pending until the job is terminal.
//
// Locking: job.state, cause, and the run's cancel func are guarded by
// job.mu; queue and registry membership (job.enqueued, job.follower) by
// Server.mu alone. The one lock order is Server.mu → job.mu.

// event is an input to the lifecycle table.
type event uint8

const (
	evAdmit event = iota
	evRecover
	evInstall
	evFollow
	evStart
	evClaimLost
	evRunEnded
	evWriteFenced
)

// stopCause is why a running job's context was cancelled, ordered by
// precedence: a higher cause replaces a lower one, never the reverse.
type stopCause uint8

const (
	causeNone stopCause = iota
	causePreempt
	causeCancel
	causeFence
)

var terminalStates = []JobState{StateDone, StateFailed, StateCanceled}

// lifecycle is the transition table: state → event → the states the event
// may lead to. A single target is the event's fixed destination; a list
// is the set of outcomes the event may carry.
var lifecycle = map[JobState]map[event][]JobState{
	"": {
		evAdmit:   {StateQueued},
		evRecover: {StateQueued},  // boot found no result: resume from the journal
		evInstall: terminalStates, // boot found a result
	},
	StateQueued: {
		evInstall:     terminalStates, // a peer's result adopted
		evFollow:      {StateQueued},  // attached to an identical in-flight job
		evStart:       {StateRunning},
		evRunEnded:    terminalStates, // ended before running: cache hit, deadline, cancel
		evWriteFenced: {StateQueued},
	},
	StateSuspended: {
		evInstall:     terminalStates,
		evFollow:      {StateQueued},
		evStart:       {StateRunning}, // resume from the journal checkpoint
		evClaimLost:   {StateQueued},  // a peer won the resume
		evRunEnded:    terminalStates,
		evWriteFenced: {StateQueued},
	},
	StateRunning: {
		// queued: fence, shutdown, or the journal held elsewhere;
		// suspended: preempted at a run boundary.
		evRunEnded:    {StateQueued, StateSuspended, StateDone, StateFailed, StateCanceled},
		evWriteFenced: {StateQueued}, // a successor owns the job
	},
}

// requests lists the states each stop cause may be requested from.
var requests = map[stopCause]map[JobState]bool{
	causePreempt: {StateRunning: true},
	causeCancel:  {StateQueued: true, StateSuspended: true, StateRunning: true},
	causeFence:   {StateRunning: true},
}

// transition is the lifecycle's transition function: the state ev leads
// to from `from`, or ok=false when the table has no such edge. outcome
// selects among an event's possible targets; "" takes the first, which
// for a fixed-target event is its only one.
func transition(from JobState, ev event, outcome JobState) (to JobState, ok bool) {
	for _, to := range lifecycle[from][ev] {
		if outcome == "" || to == outcome {
			return to, true
		}
	}
	return from, false
}

// fire raises ev on the job. When the table accepts it, the state moves,
// the lifecycle bookkeeping runs, apply (if any) updates the job's data
// fields under the same lock, and the transition is announced. It
// reports whether the event was accepted; a refused event changes
// nothing.
func (j *job) fire(ev event, outcome JobState, detail string, apply func()) bool {
	j.mu.Lock()
	from := j.state
	to, ok := transition(from, ev, outcome)
	if !ok || (ev == evStart && j.cause != causeNone) {
		j.mu.Unlock()
		return false
	}
	j.state = to
	if ev == evRecover {
		j.recovered = true
	}
	if from == StateRunning {
		j.cancel = nil
		if j.cause != causeCancel {
			j.cause = causeNone
		}
	}
	if to == StateSuspended {
		j.preemptions++
	}
	if apply != nil {
		apply()
	}
	j.mu.Unlock()
	if from != "" {
		j.trace.Emit(telemetry.Event{Kind: "api.job." + string(to), ID: j.id, Detail: detail})
		j.notify()
	}
	return true
}

// request asks the job to stop for cause c. An accepted request records
// the cause and returns the running attempt's cancel func (a no-op when
// the job is not running), which the caller invokes once it has announced
// the request. It also returns the state the job was in.
func (j *job) request(c stopCause) (from JobState, cancel func(), ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	from = j.state
	if c <= j.cause || !requests[c][from] {
		return from, nil, false
	}
	j.cause = c
	if j.cancel == nil {
		return from, func() {}, true
	}
	return from, j.cancel, true
}

// pendingStop reports the job's stop cause.
func (j *job) pendingStop() stopCause {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cause
}

// currentState reports the job's lifecycle state.
func (j *job) currentState() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// install moves the job into a persisted terminal state and copies the
// state record into the job's status fields: the one installer behind
// boot recovery (from the unborn state, silently) and peer-result
// adoption. The job keeps the record, not the renders: its result is
// read from the store when asked for. A running job refuses it — its own
// lease heartbeat fences it if it truly lost the job — and so does every
// job when the record names no terminal state.
func (j *job) install(st *StateRecord, detail string) bool {
	if !st.State.terminal() {
		return false
	}
	return j.fire(evInstall, st.State, detail, func() {
		j.stored = st
		j.setTerminal(st)
		j.resumedUnits = st.ResumedUnits
		j.prog.units.Store(st.Units)
		j.prog.expDone.Store(uint64(st.Renders))
		if st.StartedUnixNS != 0 {
			j.started = time.Unix(0, st.StartedUnixNS)
		}
	})
}

// end records a terminal result the job's own run (or the cache, or a
// leader's run) produced and committed: run-ended with that outcome. The
// job keeps the result in memory and serves it from there.
func (j *job) end(res *Result) bool {
	return j.fire(evRunEnded, res.State, res.Error, func() {
		j.result = res
		st := res.summary()
		j.setTerminal(&st)
	})
}

// setTerminal copies a terminal state's status fields into the job.
// Caller holds j.mu.
func (j *job) setTerminal(st *StateRecord) {
	j.errMsg = st.Error
	j.cached = st.Cached
	j.cacheSource = st.CacheSource
	if st.FinishedUnixNS != 0 {
		j.finished = time.Unix(0, st.FinishedUnixNS)
	}
}
