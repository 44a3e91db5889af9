package main

import (
	"fmt"
	"strings"

	"voltsmooth/internal/experiments"
)

// The tables below are the benchmark's definition; BENCHMARK.json at the
// repository root mirrors them, and TestBenchmarkJSON keeps the two in
// step (`go test -run TestBenchmarkJSON -update` rewrites the file).

// runSeconds is how long one run measures.
const runSeconds = 40

type workloadDef struct {
	Name, Why string
}

// No workload creates a file while it is timed. The store's filesystem
// (ext4 without a journal, on a 2-CPU Xeon) passes over recently freed
// inodes when it allocates one, checking each one's deletion time: within
// minutes of a run removing its stores, each mkdir and file create cost
// 0.7 ms of CPU instead of 0.03 ms. service-churn, where every job
// creates about five files, read 2.7, 4.0, 6.1, 8.2 and 9.7 ms per
// cache-miss job in five consecutive runs, so it is measured only by the
// traced suite (layers.go), as is a -fleet worker, whose 1 s scan of 3000
// stored results crossed its own interval as host speed drifted.
var workloads = []workloadDef{
	{"campaign", "pure simulation: tiny run all per fresh session, where the PDN, uarch and sense kernels and telemetry show and service changes must not"},
	{"service-deepstore", "vsmoothd booted over 3000 stored run-all jobs, clients fetching stored results: scan-bound boot, job table, 30 KB result encoding"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one reported metric. Bound applies to end-to-end metrics:
// the share of the parent's median by which a change may worsen it.
// Moves names, for a per-layer metric, the end-to-end metric and the
// workload it should move.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
	Moves              string
}

// endToEnd holds the metrics a user sees, each measured on every
// workload. A workload's "request" is what its user waits for: one tiny
// `run all` for campaign, one stored result (GET /jobs/{id}/result) for
// service-deepstore. Its set-up is a process start for campaign and a
// boot until /readyz answers for service-deepstore.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "cpu_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "requests_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.24},
}

const (
	onCampaign  = " on campaign"
	onDeepstore = " on service-deepstore"
	// service-churn runs only in the traced suite (see workloads).
	inChurn = " in the traced service-churn"
	// Nor is a fleet worker a workload.
	onFleet = "no gated metric: a fleet worker's "
)

// perLayer holds the metrics of single layers, reported by traced runs.
var perLayer = append(append([]metricDef{
	{"experiments.corpus_s", "s", "lower", 0, "latency_ms" + onCampaign},
	{"experiments.pair_table_s", "s", "lower", 0, "latency_ms" + onCampaign},
}, experimentSpans()...),
	metricDef{"pdn.step_cycle_ns", "ns", "lower", 0, "cpu_ms" + onCampaign},
	metricDef{"uarch.cycle_ns", "ns", "lower", 0, "cpu_ms" + onCampaign},
	metricDef{"workload.next_ns", "ns", "lower", 0, "cpu_ms" + onCampaign},
	metricDef{"sense.sample_ns", "ns", "lower", 0, "cpu_ms" + onCampaign},
	metricDef{"parallel.corpus_speedup", "x", "higher", 0, "latency_ms against cpu_ms" + onCampaign},
	metricDef{"trace.overhead_s", "s", "lower", 0, "no untraced metric: it is traced minus untraced campaign wall"},
	metricDef{"pdn.steps", "count", "lower", 0, "cpu_ms" + onCampaign},
	metricDef{"exp.units", "count", "lower", 0, "cpu_ms" + onCampaign},
	metricDef{"sched.cells", "count", "lower", 0, "cpu_ms" + onCampaign},
	metricDef{"sched.quanta", "count", "lower", 0, "cpu_ms" + onCampaign},
	metricDef{"failsafe.replayed_cycles", "count", "lower", 0, "cpu_ms" + onCampaign},

	metricDef{"api.store_scan_ms", "ms", "lower", 0, "setup_s" + onDeepstore + ", and each fleet scan"},

	metricDef{"api.miss_p50_ms", "ms", "lower", 0, "no gated metric: service-churn's POST until the SSE terminal frame of a cache-miss job"},
	metricDef{"api.jobs_per_s", "1/s", "higher", 0, "no gated metric: service-churn's terminal jobs per second"},
	metricDef{"api.submit_p50_ms", "ms", "lower", 0, "api.miss_p50_ms" + inChurn},
	metricDef{"api.submit_p95_ms", "ms", "lower", 0, "api.miss_p95_ms" + inChurn},
	metricDef{"api.hit_p50_ms", "ms", "lower", 0, "api.jobs_per_s" + inChurn},
	metricDef{"api.hit_p95_ms", "ms", "lower", 0, "api.jobs_per_s" + inChurn},
	metricDef{"api.miss_p95_ms", "ms", "lower", 0, "api.jobs_per_s" + inChurn},
	metricDef{"api.store_allocate_id_ms", "ms", "lower", 0, "api.submit_p50_ms and api.miss_p50_ms" + inChurn},
	metricDef{"api.store_create_job_ms", "ms", "lower", 0, "api.submit_p50_ms and api.miss_p50_ms" + inChurn},
	metricDef{"api.store_write_result_ms", "ms", "lower", 0, "api.miss_p50_ms" + inChurn},
	metricDef{"journal.open_ms", "ms", "lower", 0, "api.miss_p50_ms" + inChurn},
	metricDef{"journal.record_ms", "ms", "lower", 0, "api.miss_p50_ms" + inChurn},
	metricDef{"api.cache_load_ms", "ms", "lower", 0, "api.hit_p50_ms" + inChurn},
	metricDef{"api.cache_write_ms", "ms", "lower", 0, "api.hit_p50_ms" + inChurn},
	metricDef{"api.sse_lag_ms", "ms", "lower", 0, "api.miss_p50_ms and api.hit_p50_ms" + inChurn},
	metricDef{"api.queue_wait_ms", "ms", "lower", 0, "api.miss_p50_ms" + inChurn},
	metricDef{"api.exec_ms", "ms", "lower", 0, "api.miss_p50_ms" + inChurn},
	metricDef{"api.cache_hit_ratio", "ratio", "higher", 0, "api.jobs_per_s" + inChurn},
	metricDef{"api.job_retained_kb", "KiB", "lower", 0, "no gated metric: the heap vsmoothd keeps per job with its default event ring"},

	metricDef{"lease.claim_ms", "ms", "lower", 0, onFleet + "job latency"},
	metricDef{"lease.renew_ms", "ms", "lower", 0, onFleet + "job latency"},
	metricDef{"lease.guard_ms", "ms", "lower", 0, onFleet + "job latency"},
	metricDef{"lease.release_ms", "ms", "lower", 0, onFleet + "job latency"},
)

// experimentSpans is one metric per registered experiment: its own
// time in runner.RunBatch after the shared builds.
func experimentSpans() []metricDef {
	var out []metricDef
	for _, e := range experiments.All() {
		out = append(out, metricDef{"experiments." + e.ID + "_s", "s", "lower", 0, "latency_ms" + onCampaign})
	}
	return out
}

// note is printed beside a metric: what a per-layer metric should move,
// and the core count next to readings that depend on it.
func (d metricDef) note(h host) string {
	if d.Moves == "" {
		return ""
	}
	s := d.Moves
	if !strings.HasPrefix(s, "no ") {
		s = "moves " + s
	}
	switch d.Name {
	case "parallel.corpus_speedup":
		s = fmt.Sprintf("workers=1 vs workers=%d, nproc=%d; %s", h.NProc, h.NProc, s)
	case "trace.overhead_s":
		s = fmt.Sprintf("nproc=%d; %s", h.NProc, s)
	}
	return s
}
