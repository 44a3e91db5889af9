// Command perfbench is the repository's benchmark: one command that runs
// the simulator and the vsmoothd service under named workloads, checks
// every render against a stored oracle, and prints every metric by name
// with its unit. Run it from the repository root through its wrapper,
// which builds it first:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 40 --trace 0
//
// Workloads (metrics.go says why each exists):
//
//	campaign           tiny `run all` on a fresh session, back to back
//	service-deepstore  in-process vsmoothd over 3000 stored jobs, nproc
//	                   closed-loop clients fetching seeded stored results
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the layer suite (layers.go; the same for every workload, and the
// only place service-churn, vsmoothd taking new jobs, is measured),
// reports the per-layer metrics, and writes its spans as JSONL under
// .bench_build/. Every run first prints the host it ran on. The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics. Any wrong render, lost job, refused request or failed job
// makes correct false and the exit code 1.
//
// `--write-oracle perfbench` regenerates the oracle from a campaign.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// workDir holds every file a run writes; run.sh starts the binary from
// the repository root.
const workDir = ".bench_build"

// result is what one run reports.
type result struct {
	attempted, failed int
	samples           string // sample counts behind the medians, for the log
	e2e               map[string]float64
	layers            map[string]float64
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload  = flag.String("workload", "", "campaign | service-deepstore")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Float64("seconds", runSeconds, "measured seconds")
		trace     = flag.Int("trace", 0, "1 runs the traced layer suite instead of the end-to-end run")
		oracleDir = flag.String("write-oracle", "", "run one campaign and store its renders as the oracle under `dir`")
		probe     = flag.Bool("setup-probe", false, "internal: the child process timed by campaign set-up")
	)
	flag.Parse()
	ctx := context.Background()

	switch {
	case *probe:
		if err := setupProbe(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *oracleDir != "":
		r := runCampaign(ctx, runtime.NumCPU(), nil)
		if len(r.failed) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: experiments failed: %v\n", r.failed)
			return 1
		}
		if err := writeOracle(*oracleDir, r.renders); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if findWorkload(*workload) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}

	o, err := loadOracle()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir := filepath.Join(workDir, fmt.Sprintf("run-%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	h := hostIdentity(dir)
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)

	var res *result
	if *trace == 1 {
		tr := &tracer{run: fmt.Sprintf("%s-seed%d-pid%d", *workload, *seed, os.Getpid())}
		res, err = layerSuite(ctx, o, *seed, *seconds, dir, tr)
		if err == nil {
			path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
			if err = tr.write(path); err == nil {
				fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
			}
		}
	} else {
		switch *workload {
		case "campaign":
			res, err = campaignWorkload(ctx, o, *seconds)
		default:
			res, err = deepstoreWorkload(o, *seed, *seconds, dir)
		}
		if err == nil {
			res.e2e["peak_rss_mb"] = peakRSSMiB()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return report(res, *trace == 1, h)
}

// report prints every metric of the run with its unit, then the result
// line, and returns the exit code.
func report(res *result, traced bool, h host) int {
	defs := endToEnd
	values := res.e2e
	if traced {
		defs, values = perLayer, res.layers
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("metric %-34s %14.6g %-6s %s\n", d.Name, v, d.Unit, d.note(h))
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("info   %-34s %14.6g\n", name, values[name])
	}
	fail := ratio{res.failed, res.attempted}
	fmt.Printf("samples %s; fail_ratio %s\n", res.samples, fail)

	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if res.failed > 0 || res.attempted == 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
