package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"

	"voltsmooth/internal/experiments"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/runner"
)

// corpusVariants are the decap variants whose corpora the campaign shares
// across experiments; experiments.corpus_s sums their builds.
var corpusVariants = []pdn.ProcVariant{pdn.Proc100, pdn.Proc25, pdn.Proc3}

// campaignRun is one tiny `run all`.
type campaignRun struct {
	wall, cpu time.Duration
	renders   map[string]string
	failed    []string // experiments that returned an error
	// Traced runs only: the shared builds and each experiment's own span.
	corpus, pairTable time.Duration
	perID             map[string]time.Duration
}

// runCampaign runs every registered experiment on a fresh session at
// tiny scale through runner.RunBatch, with workers as both the sweep
// fan-out and the number of experiments in flight, and renders each, as
// `vsmooth -scale tiny run all` does. When tr is non-nil the shared
// corpora and the oracle pair table are built first under their own
// spans, so each experiment's span holds only its own work; the total
// work is the same either way.
func runCampaign(ctx context.Context, workers int, tr *tracer) campaignRun {
	run := campaignRun{renders: map[string]string{}, perID: map[string]time.Duration{}}
	cpu0, t0 := cpuTime(), time.Now()
	root, end := tr.begin("campaign", 0)
	s := experiments.NewSession(experiments.Tiny())
	s.Workers = workers
	if tr != nil {
		run.corpus, run.pairTable = buildShared(ctx, s, tr, root)
	}
	cfg := runner.Config{Workers: workers}
	if tr != nil {
		// Each experiment is timed from its first attempt's start to its
		// done event; runner.Result.Elapsed reads 0 (runOne sets it in a
		// deferred call after its result has been copied out).
		var mu sync.Mutex
		started := map[string]time.Time{}
		open := map[string]func(){}
		cfg.OnEvent = func(ev runner.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case runner.EventStart:
				if _, ok := started[ev.ID]; !ok {
					started[ev.ID] = time.Now()
					_, open[ev.ID] = tr.begin("experiments."+ev.ID, root)
				}
			case runner.EventDone:
				if end, ok := open[ev.ID]; ok {
					run.perID[ev.ID] = time.Since(started[ev.ID])
					end()
				}
			}
		}
	}
	results, _ := runner.RunBatch(ctx, s, experiments.All(), cfg)
	for _, r := range results {
		if r.Err != nil {
			run.failed = append(run.failed, r.ID)
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.ID, r.Err)
			continue
		}
		run.renders[r.ID] = r.Renderer.Render()
	}
	end()
	run.wall, run.cpu = time.Since(t0), cpuTime()-cpu0
	return run
}

// buildShared builds the session's shared corpora and pair table under
// spans and returns their wall times. Corpus and PairTable unwind a
// failure as a panic, which is a defect of the unchanged tree here.
func buildShared(ctx context.Context, s *experiments.Session, tr *tracer, parent int) (corpus, table time.Duration) {
	for _, v := range corpusVariants {
		_, end := tr.begin("experiments.corpus."+v.Name, parent)
		start := time.Now()
		s.Corpus(ctx, v)
		corpus += time.Since(start)
		end()
	}
	_, end := tr.begin("experiments.pair_table.Proc3", parent)
	start := time.Now()
	s.PairTable(ctx, pdn.Proc3)
	table = time.Since(start)
	end()
	return corpus, table
}

// campaignWorkload runs tiny campaigns back to back until seconds have
// passed (at least three, so the median is of three), checking every
// render against the oracle.
func campaignWorkload(ctx context.Context, o *oracle, seconds float64) (*result, error) {
	setup, err := campaignSetup(41)
	if err != nil {
		return nil, err
	}
	res := &result{}
	var walls, cpus []time.Duration
	start := time.Now()
	for len(walls) < 3 || time.Since(start).Seconds() < seconds {
		run := runCampaign(ctx, runtime.NumCPU(), nil)
		walls = append(walls, run.wall)
		cpus = append(cpus, run.cpu)
		res.attempted += len(experiments.All())
		bad := append(run.failed, o.check(run.renders)...)
		res.failed += len(bad)
		if len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: campaign renders wrong or missing: %v\n", bad)
		}
	}
	var total time.Duration
	for _, w := range walls {
		total += w
	}
	res.samples = fmt.Sprintf("%d campaigns", len(walls))
	res.e2e = map[string]float64{
		"setup_s":        setup,
		"latency_ms":     median(ms(walls)),
		"cpu_ms":         median(ms(cpus)),
		"requests_per_s": float64(len(walls)) / total.Seconds(),
	}
	return res, nil
}

// campaignSetup is what a `run all` user waits for before the first
// simulation: a process start of this binary that builds the session and
// resolves every experiment (setupProbe), then exits. It returns the
// median over n starts, in seconds.
func campaignSetup(n int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ds []time.Duration
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--setup-probe")
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ds = append(ds, time.Since(start))
	}
	return median(secs(ds)), nil
}

// setupProbe is the child side of campaignSetup.
func setupProbe() error {
	s := experiments.NewSession(experiments.Tiny())
	s.Workers = runtime.NumCPU()
	for _, e := range experiments.All() {
		if _, err := experiments.Lookup(e.ID); err != nil {
			return err
		}
	}
	return nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
