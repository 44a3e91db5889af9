package api

import (
	"sync/atomic"

	"voltsmooth/internal/telemetry"
)

// Hooks is the service layer's process-global telemetry surface: fleet
// totals for the /metrics endpoint and the instrument table. Every field
// may be nil. Per-job progress deliberately does NOT come from here — it
// is fed from job-scoped observers (see exec.go) so that concurrent jobs
// never bleed into each other; these hooks are the accumulating
// process-wide view.
type Hooks struct {
	// Submitted counts POST /jobs requests that parsed and validated.
	Submitted *telemetry.Counter
	// Admitted counts submissions accepted into the queue (202).
	Admitted *telemetry.Counter
	// Rejected counts submissions refused with 429 (quota or full queue).
	Rejected *telemetry.Counter
	// Unavailable counts submissions refused with 503 (draining).
	Unavailable *telemetry.Counter
	// Completed / Failed / Canceled count terminal jobs by outcome.
	Completed *telemetry.Counter
	Failed    *telemetry.Counter
	Canceled  *telemetry.Counter
	// Recovered counts unfinished jobs re-enqueued by boot-time recovery.
	Recovered *telemetry.Counter
	// CacheHits counts jobs served from the durable cross-tenant result
	// cache; CacheMisses counts executions that checked it and ran;
	// CacheFollowed counts jobs completed by attaching to an identical
	// in-flight job; CacheEvicted counts entries removed by the CacheMax
	// bound. (Fleet workers following a peer land in CacheHits — they
	// adopt the peer's published entry once it exists.)
	CacheHits     *telemetry.Counter
	CacheMisses   *telemetry.Counter
	CacheFollowed *telemetry.Counter
	CacheEvicted  *telemetry.Counter
	// SSEStreams counts /jobs/{id}/events event-stream connections.
	SSEStreams *telemetry.Counter
	// SSEDropped counts event-stream watchers dropped because the client
	// stalled past the per-frame write deadline (slow-consumer shedding).
	SSEDropped *telemetry.Counter
	// Preempted counts runs suspended at a run boundary to yield their
	// worker slot to a higher-priority arrival.
	Preempted *telemetry.Counter
	// Shed counts bulk submissions refused 429 past the shed watermark.
	Shed *telemetry.Counter
	// DeadlineInfeasible counts jobs failed fast because their deadline
	// could no longer be met.
	DeadlineInfeasible *telemetry.Counter
	// QueueDepth tracks jobs waiting in the admission queue.
	QueueDepth *telemetry.Gauge
	// Running tracks jobs currently executing.
	Running *telemetry.Gauge
	// Draining is 1 while the server refuses new work during shutdown.
	Draining *telemetry.Gauge
	// Trace receives api.job.* lifecycle events for the process-wide
	// trace (each job also keeps its own bounded ring).
	Trace *telemetry.Trace
}

var hooks atomic.Pointer[Hooks]

// SetHooks installs (or, with nil, removes) the package's telemetry hooks
// and returns the previously installed set. Typically wired once at
// server start by internal/telemetry/wire.
func SetHooks(h *Hooks) *Hooks { return hooks.Swap(h) }

func hookInc(c func(h *Hooks) *telemetry.Counter) { hookIncBy(c, 1) }

func hookIncBy(c func(h *Hooks) *telemetry.Counter, n int) {
	if h := hooks.Load(); h != nil {
		if counter := c(h); counter != nil {
			counter.Add(uint64(n))
		}
	}
}

func hookGaugeAdd(g func(h *Hooks) *telemetry.Gauge, delta int64) {
	if h := hooks.Load(); h != nil {
		if gauge := g(h); gauge != nil {
			gauge.Add(delta)
		}
	}
}

func hookGaugeSet(g func(h *Hooks) *telemetry.Gauge, v int64) {
	if h := hooks.Load(); h != nil {
		if gauge := g(h); gauge != nil {
			gauge.Set(v)
		}
	}
}

func hookTrace(ev telemetry.Event) {
	if h := hooks.Load(); h != nil && h.Trace != nil {
		h.Trace.Emit(ev)
	}
}
