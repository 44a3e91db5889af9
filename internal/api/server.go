package api

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"voltsmooth/internal/durable"
	"voltsmooth/internal/lease"
	"voltsmooth/internal/runner"
	"voltsmooth/internal/telemetry"
)

// Config shapes a Server.
type Config struct {
	// Store is the durable job store (required).
	Store *Store

	// QueueCap bounds how many admitted jobs may wait for a worker. A
	// full queue refuses new submissions with 429 + Retry-After — the
	// queue never buffers unboundedly. <= 0 means 16.
	QueueCap int
	// JobWorkers is how many jobs execute concurrently. <= 0 means 2.
	// (Each job additionally fans its own measurement sweeps out over its
	// spec's Workers goroutines.)
	JobWorkers int
	// DefaultSessionWorkers is a job's sweep fan-out when its spec leaves
	// Workers at 0. <= 0 means 4. Results are bit-identical at any width.
	DefaultSessionWorkers int

	// QuotaRate is the per-client admission rate in jobs/second, with
	// QuotaBurst tokens of burst. Rate <= 0 disables quotas.
	QuotaRate  float64
	QuotaBurst int

	// DefaultTimeout is the per-job deadline when a spec leaves
	// TimeoutMS at 0; 0 means no deadline.
	DefaultTimeout time.Duration
	// ExpTimeout / Retries / StallTimeout shape the per-job runner: the
	// per-attempt deadline, attempt budget, and stall watchdog of the
	// established retry/backoff taxonomy.
	ExpTimeout   time.Duration
	Retries      int
	StallTimeout time.Duration

	// FS is the filesystem seam under every job journal and, in fleet
	// mode, the lease layer; nil means the real filesystem. The
	// kill–restart and fleet e2es inject the chaos plane here, so seeded
	// kill-points land mid-append and inside claim transactions alike.
	// The job store itself always writes through durable.OS.
	FS durable.FS
	// SyncEvery is the job journals' fsync cadence; <= 0 means 1 (every
	// record — a server must survive whole-machine crashes).
	SyncEvery int

	// EventsCap bounds each job's event ring; <= 0 means 4096.
	EventsCap int

	// Preempt enables priority preemption (DESIGN §13): when every worker
	// slot is busy and a strictly higher-priority job arrives, the
	// worst-ranked running job is cancelled at its next run boundary,
	// suspended with its journal checkpoint intact, and requeued to resume
	// bit-identically later. Off by default in the library (tests and
	// embedders opt in); vsmoothd turns it on via -preempt.
	Preempt bool
	// AgeAfter is the queue's aging quantum: a waiting job's effective
	// rank drops by one per AgeAfter waited, so bulk work is delayed but
	// never starved (worst-case inversion 2*AgeAfter plus the work ahead
	// at rank 0). <= 0 means 30s.
	AgeAfter time.Duration
	// ShedWatermark is the queue depth at or past which BULK submissions
	// are shed with 429 + Retry-After instead of queued — under sustained
	// overload the server degrades the lowest class first rather than
	// stuffing the queue to the cap for everyone. <= 0 means 3/4 of
	// QueueCap (minimum 1).
	ShedWatermark int

	// DisableCache turns the cross-tenant result cache and in-flight
	// dedup (DESIGN §12) off: every job executes, nothing is shared. On
	// by default because the campaign engine is deterministic — identical
	// normalized specs render byte-identical figures, so sharing one
	// execution is semantics-free.
	DisableCache bool
	// CacheMax bounds the cache at N fingerprints, evicting the oldest
	// after each publish; <= 0 means unbounded.
	CacheMax int
	// SSEHeartbeat is the comment-heartbeat cadence of /jobs/{id}/events
	// streams (keeps idle proxies from timing the stream out); <= 0
	// means 15s.
	SSEHeartbeat time.Duration
	// SSEWriteTimeout bounds each SSE frame write: a consumer that can't
	// drain a frame within it is dropped (counted in api.sse_dropped)
	// rather than pinning server memory or blocking the stream goroutine.
	// <= 0 means 5s.
	SSEWriteTimeout time.Duration

	// Metrics, when non-nil, is served as JSON at GET /metrics.
	Metrics *telemetry.Registry

	// Logf receives server logs; nil means stderr.
	Logf func(format string, args ...any)

	// Now is the clock seam for quota refill; nil means time.Now.
	Now func() time.Time

	// BeforeJob, when set, runs just before each job executes — a test
	// seam (like journal.OnRecord) for holding a worker in place while a
	// saturation test fills the queue. Production code leaves it nil.
	BeforeJob func(id string)

	// Fleet switches job ownership from the in-process queue to durable
	// per-job leases (internal/lease), so any number of processes sharing
	// one store can run jobs: each worker scans for unowned or expired
	// jobs, claims them under the store's flock, renews on a heartbeat,
	// and fences stale owners by epoch. Off by default — a single-process
	// server needs none of it.
	Fleet bool
	// WorkerID names this process in lease files; must be unique across
	// the live fleet. Empty means "<hostname>-<pid>".
	WorkerID string
	// LeaseTTL is how long a claim or renewal confers ownership — the
	// failover detection latency for dead workers. <= 0 means 3s.
	LeaseTTL time.Duration
	// ScanInterval is the claim scanner's cadence; <= 0 means LeaseTTL/3.
	ScanInterval time.Duration
}

// Server is the campaign service: admission, queue, executor pool, job
// store, and the HTTP surface over them (Handler).
type Server struct {
	cfg    Config
	store  *Store
	quotas *quotas
	logf   func(format string, args ...any)
	now    func() time.Time

	// leases is non-nil exactly in fleet mode: the lease manager for this
	// worker's claims over the shared store.
	leases *lease.Manager

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order
	// live indexes the jobs that may lead a fingerprint's execution:
	// fingerprint → its non-terminal jobs in ID (submission) order.
	// dedupLeaderLocked drops the ones that went terminal since it last
	// looked — terminal is final, so each is dropped once — so a lookup
	// never walks the terminal jobs a long-lived server piles up.
	live     map[string][]*job
	depth    int // jobs admitted but not yet picked by a worker
	draining bool
	// drainDeadline is Drain's budget, recorded so the 503 Retry-After
	// can report the actual time until a restart can admit again.
	drainDeadline time.Time
	// avgJobDur is an EWMA of executed jobs' wall-clock, feeding the
	// queue-full Retry-After derivation.
	avgJobDur time.Duration
	// inflight maps fingerprint → the job executing it on this server
	// (non-fleet dedup leadership); followers maps fingerprint → jobs
	// attached to that execution, completed from its result when it
	// lands. Fleet mode leaves both empty — cross-worker dedup rides the
	// scanner and the durable cache instead.
	inflight  map[string]*job
	followers map[string][]*job
	// queue is the priority queue (queue.go): a slice under mu, picked by
	// min (effectiveRank, enqueuedAt, id). running maps job ID → the job
	// each local worker slot is executing — the preemption scheduler's
	// victim pool.
	queue   []*job
	running map[string]*job

	// wake carries one token per enqueue to the worker pool; the queue
	// itself holds the jobs (see signalWork for the overflow path).
	wake     chan struct{}
	stopPick chan struct{}
	pickOnce sync.Once

	// jobsCtx is the root of every job context; jobsCancel is the drain
	// deadline's hard stop — jobs unwind at their next run boundary with
	// their journals intact.
	jobsCtx    context.Context
	jobsCancel context.CancelFunc

	workerWG sync.WaitGroup
}

// New opens the server over its store: it scans for jobs left behind by a
// previous process (crash recovery), re-enqueues the unfinished ones, and
// starts the worker pool. The HTTP surface is served via Handler; Drain
// shuts the pool down gracefully.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("api: Config.Store is required")
	}
	orDefault(&cfg.QueueCap, 16)
	orDefault(&cfg.JobWorkers, 2)
	orDefault(&cfg.DefaultSessionWorkers, 4)
	orDefault(&cfg.Retries, runner.DefaultMaxAttempts)
	orDefault(&cfg.SyncEvery, 1)
	orDefault(&cfg.EventsCap, 4096)
	orDefault(&cfg.SSEHeartbeat, 15*time.Second)
	orDefault(&cfg.SSEWriteTimeout, 5*time.Second)
	orDefault(&cfg.AgeAfter, 30*time.Second)
	orDefault(&cfg.ShedWatermark, max(cfg.QueueCap*3/4, 1))
	logf := cfg.Logf
	if logf == nil {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "vsmoothd: "+format+"\n", args...)
		}
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	if cfg.Fleet {
		if cfg.WorkerID == "" {
			host, _ := os.Hostname()
			cfg.WorkerID = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		orDefault(&cfg.LeaseTTL, 3*time.Second)
		orDefault(&cfg.ScanInterval, cfg.LeaseTTL/3)
	}

	s := &Server{
		cfg:       cfg,
		store:     cfg.Store,
		quotas:    newQuotas(cfg.QuotaRate, cfg.QuotaBurst, now),
		logf:      logf,
		now:       now,
		jobs:      map[string]*job{},
		live:      map[string][]*job{},
		inflight:  map[string]*job{},
		followers: map[string][]*job{},
		running:   map[string]*job{},
		stopPick:  make(chan struct{}),
	}
	s.jobsCtx, s.jobsCancel = context.WithCancel(context.Background())
	if cfg.Fleet {
		s.leases = &lease.Manager{
			WorkerID: cfg.WorkerID,
			TTL:      cfg.LeaseTTL,
			FS:       cfg.FS,
			Now:      now,
			Warn: func(format string, args ...any) {
				logf("lease: "+format, args...)
			},
		}
	}

	// Recovery on boot: replay the store. Terminal jobs are served from
	// their persisted results; unfinished ones go back on the queue and
	// resume from their journals.
	stored, err := s.store.Scan(func(format string, args ...any) {
		logf("recovery: "+format, args...)
	})
	if err != nil {
		return nil, err
	}
	var recovered []*job
	for _, sj := range stored {
		jb := newJob(sj.Record, cfg.EventsCap)
		if sj.State == nil || !jb.install(sj.State, "") {
			jb.fire(evRecover, "", "", nil)
			recovered = append(recovered, jb)
		}
		s.register(jb)
	}

	// The wake channel is sized so every token a realistic queue can
	// carry fits the fast path: QueueCap live slots plus one per
	// recovered job preloaded before serving starts, plus headroom for
	// follower promotions, suspend-requeues, and the fleet scanner's
	// enqueues. Overflow falls back to a delivering goroutine
	// (signalWork) rather than losing the token.
	s.wake = make(chan struct{}, cfg.QueueCap+len(recovered)+64)
	for _, jb := range recovered {
		s.enqueue(jb, true)
		hookInc(func(h *Hooks) *telemetry.Counter { return h.Recovered })
		jb.trace.Emit(telemetry.Event{Kind: "api.job.recovered", ID: jb.id})
		hookTrace(telemetry.Event{Kind: "api.job.recovered", ID: jb.id})
		logf("recovery: job %s re-enqueued (will resume from its journal)", jb.id)
	}
	hookGaugeSet(func(h *Hooks) *telemetry.Gauge { return h.QueueDepth }, int64(s.depth))

	s.workerWG.Add(cfg.JobWorkers)
	for i := 0; i < cfg.JobWorkers; i++ {
		go s.worker()
	}
	if cfg.Fleet {
		s.workerWG.Add(1)
		go s.scanLoop()
	}
	return s, nil
}

// orDefault replaces a non-positive config value with its default.
func orDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// scanLoop is fleet mode's ownership pump: every ScanInterval it rescans
// the shared store, learns about jobs peers submitted, adopts results
// peers finished, and enqueues claim attempts for jobs nobody owns —
// including jobs whose owner died and let the lease expire. Claims
// themselves happen in runJob under the store flock; the scanner only
// nominates candidates, so a lost race costs one queue slot, never
// correctness.
func (s *Server) scanLoop() {
	defer s.workerWG.Done()
	t := time.NewTicker(s.cfg.ScanInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopPick:
			return
		case <-t.C:
			s.scanOnce()
		}
	}
}

// scanOnce is one pass of the fleet scanner. Jobs this process already
// holds as terminal are not read again: no event leaves a terminal state,
// so nothing the store says about them could change this process's view.
func (s *Server) scanOnce() {
	stored, err := s.store.ScanSkipping(func(format string, args ...any) {
		s.logf("fleet scan: "+format, args...)
	}, s.knownTerminal)
	if err != nil {
		s.logf("fleet scan: %v", err)
		return
	}
	for _, sj := range stored {
		id := sj.Record.ID

		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return
		}
		jb, known := s.jobs[id]
		if !known {
			// A peer admitted this job; mirror it locally so /jobs serves
			// it and the claim path below can pick it up.
			jb = newJob(sj.Record, s.cfg.EventsCap)
			jb.fire(evAdmit, "", "", nil)
			s.register(jb)
		}
		// The scanner's enqueues ride bounded headroom: past it, local
		// workers are saturated and the next scan retries — the queue
		// never grows without bound on peer work.
		skip := jb.enqueued || s.depth >= s.cfg.QueueCap+64
		s.mu.Unlock()

		if sj.State != nil {
			s.adoptResult(jb, sj.State)
			continue
		}
		if st := jb.currentState(); skip || st.terminal() || st == StateRunning {
			continue
		}

		// Peek at the lease before spending a queue slot: a job under a
		// peer's live lease is theirs until the TTL says otherwise.
		if l, err := lease.Load(s.cfg.FS, s.store.jobDir(id)); err == nil &&
			l.LiveAt(s.now()) && l.WorkerID != s.cfg.WorkerID {
			continue
		}

		// Dedup holdback (DESIGN §12): while an identical campaign is in
		// flight under a different job, this one waits — whoever finishes
		// first publishes the cache entry, and the next pass nominates
		// this job straight into a cache hit. Without the holdback every
		// scan would claim the job (epoch churn) just to step back again
		// in runJob's leader check.
		if s.cacheEnabled() {
			if l := s.dedupLeader(jb.fingerprint); l != nil && l != jb {
				if _, err := s.store.LoadCached(jb.fingerprint); err != nil {
					continue
				}
			}
		}

		if s.enqueue(jb, true) {
			s.maybePreempt(jb)
		}
	}
}

// knownTerminal reports whether id is in the job table in a terminal
// state.
func (s *Server) knownTerminal(id string) bool {
	s.mu.Lock()
	jb := s.jobs[id]
	s.mu.Unlock()
	return jb != nil && jb.currentState().terminal()
}

// adoptResult installs a terminal state a peer worker persisted, so this
// process's view of the job converges with the store. Local queued copies
// flip terminal; a locally running job is left alone — its own lease
// heartbeat fences it if it truly lost the job.
func (s *Server) adoptResult(jb *job, st *StateRecord) {
	if jb.install(st, "adopted from peer result") {
		s.logf("job %s: adopted peer result (%s, %d units)", jb.id, st.State, st.Units)
	}
}

// register adds a new job to the job table and, while it is not
// terminal, to the dedup index. Caller holds s.mu, or has the server to
// itself (boot).
func (s *Server) register(jb *job) {
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb.id)
	if jb.fingerprint == "" || jb.currentState().terminal() {
		return
	}
	l := s.live[jb.fingerprint]
	i, _ := slices.BinarySearchFunc(l, jb.id, func(e *job, id string) int { return strings.Compare(e.id, id) })
	s.live[jb.fingerprint] = slices.Insert(l, i, jb)
}

// unregister removes a job admit could not persist. Caller holds s.mu.
func (s *Server) unregister(jb *job) {
	delete(s.jobs, jb.id)
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == jb.id })
	l := slices.DeleteFunc(s.live[jb.fingerprint], func(e *job) bool { return e == jb })
	if len(l) == 0 {
		delete(s.live, jb.fingerprint)
	} else {
		s.live[jb.fingerprint] = l
	}
}

// worker picks jobs off the priority queue until drain closes stopPick.
// Each wake token licenses one pick attempt; a spurious token (the queue
// emptied, or another worker won the race) just loops.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case <-s.stopPick:
			return
		case <-s.wake:
			jb, draining := s.dequeue()
			if draining {
				// Drained mid-wake: queued jobs stay on disk (no
				// result.json), so the next boot recovers them. Do not
				// start work the drain deadline would only cut down.
				return
			}
			if jb == nil {
				continue
			}
			s.runJob(jb)
		}
	}
}

// isDraining reports whether the server has begun shutdown.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the service down gracefully: new submissions are refused
// with 503 and /readyz flips immediately; queued jobs stay durably queued
// for the next boot; running jobs get until ctx's deadline to finish,
// then are cancelled — they unwind at their next run boundary, their
// journals keeping every completed unit, so the next boot resumes them.
// Drain returns nil when every worker stopped in time, or ctx.Err() when
// the deadline forced cancellation.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if dl, ok := ctx.Deadline(); ok {
		// Recorded before the flag is visible, so every draining 503's
		// Retry-After can report the real time until this process is gone
		// and a restart (or fleet peer) admits again.
		s.drainDeadline = dl
	}
	s.mu.Unlock()
	hookGaugeSet(func(h *Hooks) *telemetry.Gauge { return h.Draining }, 1)
	hookTrace(telemetry.Event{Kind: "api.drain.start"})
	s.pickOnce.Do(func() { close(s.stopPick) })

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.logf("drain deadline expired; cancelling running jobs (checkpoints are kept)")
		s.jobsCancel()
		<-done
	}
	s.jobsCancel()
	hookTrace(telemetry.Event{Kind: "api.drain.done"})
	return err
}

// Close hard-stops the server: cancel everything, wait for workers.
// Journals keep completed units; unfinished jobs recover next boot.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.pickOnce.Do(func() { close(s.stopPick) })
	s.jobsCancel()
	s.workerWG.Wait()
}

// lookup returns the job by ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	return jb, ok
}

// statuses returns every job's status in submission order.
func (s *Server) statuses() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, jb := range jobs {
		out = append(out, jb.status())
	}
	return out
}
