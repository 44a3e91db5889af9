package api

import (
	"context"
	"slices"
	"time"

	"voltsmooth/internal/telemetry"
)

// The admission queue (DESIGN §13) is a priority queue with aging, not a
// FIFO channel: workers always pick the waiting job with the lowest
// EFFECTIVE rank, where a job's effective rank starts at its class's base
// rank (interactive=0, batch=1, bulk=2) and drops by one for every
// AgeAfter it has waited, clamped at 0. Ties break by queue seniority
// (enqueuedAt), then job ID — so within a rank the queue is FIFO, and a
// bulk job that has aged to rank 0 is ordered purely by how long it has
// waited. That bounds priority inversion: a bulk job is runnable ahead of
// fresh interactive arrivals after at most rankBulk*AgeAfter of waiting
// (the "aging budget" the overload soak asserts).
//
// The queue itself is a plain slice under Server.mu with an O(n) scan per
// pick: the queue is bounded by QueueCap (plus recovery/scanner headroom),
// and a pick happens once per job execution — dozens of entries, not
// thousands — so a heap would buy nothing but code.

// effectiveRank computes a queued job's rank at time now: base rank minus
// one per ageAfter waited, floored at 0. ageAfter <= 0 disables aging.
func effectiveRank(jb *job, now time.Time, ageAfter time.Duration) int {
	r := jb.rank()
	if ageAfter > 0 && !jb.enqueuedAt.IsZero() {
		if waited := now.Sub(jb.enqueuedAt); waited > 0 {
			r -= int(waited / ageAfter)
		}
	}
	if r < 0 {
		r = 0
	}
	return r
}

// pickBest returns the index of the job a worker should run next: minimum
// (effectiveRank, enqueuedAt, id). -1 on an empty queue. Pure function of
// its inputs so the aging property test can drive it with a fake clock.
func pickBest(queue []*job, now time.Time, ageAfter time.Duration) int {
	best := -1
	bestRank := 0
	for i, jb := range queue {
		r := effectiveRank(jb, now, ageAfter)
		if best < 0 {
			best, bestRank = i, r
			continue
		}
		switch {
		case r < bestRank:
			best, bestRank = i, r
		case r == bestRank:
			b := queue[best]
			if jb.enqueuedAt.Before(b.enqueuedAt) ||
				(jb.enqueuedAt.Equal(b.enqueuedAt) && jb.id < b.id) {
				best = i
			}
		}
	}
	return best
}

// enqueue puts jb on the priority queue and wakes a worker, unless jb is
// already queued or in a local worker's hands, terminal, or running: the
// one guard every enqueue path shares. takeSlot takes a depth slot
// WITHOUT a capacity check — re-admitting acked work must never shed it;
// admission reserved its slot up front and a promoted follower keeps the
// one it holds. It reports whether jb was enqueued.
func (s *Server) enqueue(jb *job, takeSlot bool) bool {
	s.mu.Lock()
	st := jb.currentState()
	ok := !jb.enqueued && !st.terminal() && st != StateRunning
	if ok {
		jb.enqueued = true
		s.queue = append(s.queue, jb)
		if takeSlot {
			s.depth++
		}
	}
	depth := s.depth
	s.mu.Unlock()
	if ok {
		hookGaugeSet(func(h *Hooks) *telemetry.Gauge { return h.QueueDepth }, int64(depth))
		s.signalWork()
	}
	return ok
}

// putBack ends a worker's hold on jb once runJob is done with it. A job
// the run left suspended goes straight back on the queue: by then every
// run defer (journal flock, fleet lease) has unwound, so any worker or
// peer can claim it cleanly, and it keeps its original enqueuedAt — it
// ages from its admission wait, not from zero.
func (s *Server) putBack(jb *job) {
	s.mu.Lock()
	jb.enqueued = false
	s.mu.Unlock()
	if jb.currentState() == StateSuspended {
		s.enqueue(jb, true)
	}
}

// signalWork hands one wake token to the worker pool. The token channel
// is sized past any realistic queue length, so the fast path is a
// non-blocking send; if it ever fills, a goroutine delivers the token
// rather than dropping it — a lost token would strand a queued job until
// the next unrelated enqueue.
func (s *Server) signalWork() {
	select {
	case s.wake <- struct{}{}:
	default:
		go func() {
			select {
			case s.wake <- struct{}{}:
			case <-s.stopPick:
			}
		}()
	}
}

// dequeue pops the best queued job. It returns (nil, true) when the
// server is draining — the worker should exit, leaving queued jobs
// durably on disk for the next boot — and (nil, false) on a spurious
// wakeup (token raced a pick, or the queue emptied by cancel).
func (s *Server) dequeue() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, true
	}
	i := pickBest(s.queue, s.now(), s.cfg.AgeAfter)
	if i < 0 {
		return nil, false
	}
	jb := s.queue[i]
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
	s.depth--
	// jb stays enqueued (in this worker's hands) until putBack.
	hookGaugeSet(func(h *Hooks) *telemetry.Gauge { return h.QueueDepth }, int64(s.depth))
	return jb, false
}

// maybePreempt runs after arrival was enqueued: when every worker slot is
// busy and some running job has a STRICTLY worse base rank, the worst
// such victim (latest-started among equals) gets a preempt request. The
// run unwinds at its next run boundary — the same mechanism drain uses —
// persists its journal checkpoint, and the job re-queues as suspended,
// resuming bit-identically on its next pick (on any fleet worker: the
// victim's lease is released for requeue). Strict inequality means
// equal-rank work never churns, and an interactive job (rank 0) can never
// itself be preempted.
//
// In fleet mode a preemption fires only for an arrival this worker will
// run: the arrival's lease is claimed first and held until runJob takes
// it over. A refused claim (a peer got there first) preempts nothing.
func (s *Server) maybePreempt(arrival *job) {
	if !s.cfg.Preempt {
		return
	}
	newRank := arrival.rank()
	s.mu.Lock()
	if len(s.running) < s.cfg.JobWorkers || !slices.Contains(s.queue, arrival) {
		// A free slot takes the arrival, or one already has.
		s.mu.Unlock()
		return
	}
	var victim *job
	var victimStarted time.Time
	victimRank := newRank // must be strictly exceeded
	for _, r := range s.running {
		r.mu.Lock()
		eligible := r.state == StateRunning && r.cause == causeNone && r.cancel != nil
		started := r.started
		r.mu.Unlock()
		rr := r.rank()
		if eligible && (rr > victimRank || (rr == victimRank && victim != nil && started.After(victimStarted))) {
			victim, victimStarted, victimRank = r, started, rr
		}
	}
	s.mu.Unlock()
	if victim == nil {
		return
	}
	if s.leases != nil && !s.holdAhead(arrival) {
		return
	}

	// The request re-checks eligibility under the victim's lock: the run
	// may have finished, been cancelled, or already been preempted since
	// the scan.
	_, cancel, ok := victim.request(causePreempt)
	if !ok {
		return
	}
	victim.trace.Emit(telemetry.Event{Kind: "api.job.preempting", ID: victim.id,
		Detail: "higher-priority arrival; suspending at next run boundary"})
	hookTrace(telemetry.Event{Kind: "api.job.preempting", ID: victim.id})
	s.logf("job %s: preempting (rank %d) for a rank-%d arrival", victim.id, victimRank, newRank)
	cancel()
}

// holdAhead claims jb's lease before jb runs and renews it until runJob
// takes the hold over (see claim) or the server stops. A hold fenced in
// the meantime is caught by the run's own heartbeat. It reports false
// when a peer owns the job.
func (s *Server) holdAhead(jb *job) bool {
	h, err := s.leases.Claim(s.store.jobDir(jb.id), jb.id)
	if err != nil {
		jb.trace.Emit(telemetry.Event{Kind: "api.job.claim_lost", ID: jb.id, Detail: firstLine(err)})
		return false
	}
	ctx, stop := context.WithCancel(s.jobsCtx)
	jb.mu.Lock()
	jb.hold, jb.holdStop = h, stop
	jb.mu.Unlock()
	go h.Keep(ctx, 0, nil, nil)
	return true
}
