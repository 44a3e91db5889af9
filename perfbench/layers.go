package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/core"
	"voltsmooth/internal/experiments"
	"voltsmooth/internal/journal"
	"voltsmooth/internal/lease"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/telemetry"
	"voltsmooth/internal/telemetry/wire"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// sideOps is how many calls each store, cache, journal and lease timing
// takes its median over.
const sideOps = 40

// layerSuite is the traced run, the same for every workload. Every traced
// run reports every per-layer metric, so it measures each layer in the
// setting it belongs to: a campaign (untraced, then traced with telemetry
// wired), the sweep at workers=1 and workers=nproc, the simulation
// kernels, store, cache, journal and lease calls on a side directory of
// the same filesystem, service-churn's loop, and Store.Scan over a store
// the size of service-deepstore's. Spans go to tr.
func layerSuite(ctx context.Context, o *oracle, seed int64, seconds float64, dir string, tr *tracer) (*result, error) {
	res := &result{layers: map[string]float64{}}
	L := res.layers
	nproc := runtime.NumCPU()

	// Campaign: the untraced wall is the baseline for the tracing cost.
	plain := runCampaign(ctx, nproc, nil)
	reg := telemetry.NewRegistry()
	uninstall := wire.Install(reg, nil)
	traced := runCampaign(ctx, nproc, tr)
	uninstall()
	for _, r := range []campaignRun{plain, traced} {
		res.attempted += len(experiments.All())
		if bad := append(r.failed, o.check(r.renders)...); len(bad) > 0 {
			res.failed += len(bad)
			fmt.Fprintf(os.Stderr, "perfbench: campaign renders wrong or missing: %v\n", bad)
		}
	}
	L["experiments.corpus_s"] = traced.corpus.Seconds()
	L["experiments.pair_table_s"] = traced.pairTable.Seconds()
	for id, d := range traced.perID {
		L["experiments."+id+"_s"] = d.Seconds()
	}
	L["trace.overhead_s"] = (traced.wall - plain.wall).Seconds()
	for _, c := range []string{wire.PDNSteps, wire.ExpUnits, wire.SchedCells, wire.SchedQuanta, wire.FailsafeReplayedCycles} {
		L[c] = float64(reg.Counter(c).Load())
	}

	serial := corpusBuild(ctx, 1, tr)
	wide := corpusBuild(ctx, nproc, tr)
	L["parallel.corpus_speedup"] = serial.Seconds() / wide.Seconds()
	L["info.corpus_workers1_s"] = serial.Seconds()
	L["info.corpus_workersN_s"] = wide.Seconds()

	kernels(L, tr)
	// Telemetry wired as in vsmoothd, so each call pays its hooks.
	uninstall = wire.Install(telemetry.NewRegistry(), nil)
	err := sideLayers(L, o, filepath.Join(dir, "side"), tr)
	uninstall()
	if err != nil {
		return nil, err
	}
	jobs, kb, err := jobRetained(o, filepath.Join(dir, "retained"), tr)
	res.attempted += jobs
	if err != nil {
		return nil, err
	}
	L["api.job_retained_kb"] = kb

	run, err := runService(o, churn, seed, seconds, filepath.Join(dir, "churn"), tr)
	if err != nil {
		return nil, err
	}
	res.attempted += run.load.attempted
	res.failed += run.failures()
	if err := serviceLayers(L, run); err != nil {
		return nil, err
	}

	scan, err := storeScan(o, filepath.Join(dir, "seeded"), tr)
	if err != nil {
		return nil, err
	}
	L["api.store_scan_ms"] = scan
	hits, _, _ := run.split()
	res.samples = fmt.Sprintf("2 campaigns, %d churn jobs timed (measured hit share %s)",
		len(run.load.samples), ratio{len(hits), len(run.load.samples)})
	return res, nil
}

// corpusBuild times the shared corpora on a fresh session at the given
// sweep width.
func corpusBuild(ctx context.Context, workers int, tr *tracer) time.Duration {
	_, end := tr.begin(fmt.Sprintf("parallel.corpus.workers=%d", workers), 0)
	defer end()
	s := experiments.NewSession(experiments.Tiny())
	s.Workers = workers
	start := time.Now()
	for _, v := range corpusVariants {
		s.Corpus(ctx, v)
	}
	return time.Since(start)
}

// nsPerOp is the median over batches of one call's time, in ns.
func nsPerOp(batches, iters int, f func(i int)) float64 {
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f(i)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(per)
}

// sink keeps the kernels' results live.
var sink float64

// kernels times the simulation hot paths the campaign spends its CPU in.
func kernels(L map[string]float64, tr *tracer) {
	_, end := tr.begin("kernels", 0)
	defer end()
	cfg := uarch.DefaultConfig()

	n := pdn.NewAtLoad(cfg.PDN, 20)
	cycle := 1 / cfg.ClockHz
	L["pdn.step_cycle_ns"] = nsPerOp(7, 200_000, func(i int) {
		sink += n.StepCycle(cycle, 20+float64(i&15), cfg.Substeps)
	})

	chip := uarch.NewChip(cfg)
	for core, name := range []string{"gcc", "mcf"} {
		p, _ := workload.ByName(name)
		chip.SetStream(core, p.NewStream())
	}
	L["uarch.cycle_ns"] = nsPerOp(7, 50_000, func(int) { sink += chip.Cycle() })

	p, _ := workload.ByName("gcc")
	stream := p.NewStream()
	L["workload.next_ns"] = nsPerOp(7, 500_000, func(int) { sink += float64(stream.Next().Class) })

	scope := sense.NewScope(cfg.PDN.VNom, core.DefaultMargins())
	vnom := cfg.PDN.VNom
	L["sense.sample_ns"] = nsPerOp(7, 500_000, func(i int) {
		scope.Sample(vnom * (1 - 0.15*float64(i&63)/64))
	})
}

// timeOps is the median of n calls of f, in ms; the first error stops it.
func timeOps(n int, f func(i int) error) (float64, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	return median(ms(ds)), nil
}

// sideLayers times the store, cache, journal and lease calls a job makes,
// on a side store in the run's directory, so no workload's store is
// touched. Results carry fig2's render, as the service workloads' do.
func sideLayers(L map[string]float64, o *oracle, dir string, tr *tracer) error {
	_, end := tr.begin("side_layers", 0)
	defer end()
	st, err := api.OpenStore(dir)
	if err != nil {
		return err
	}
	renders := map[string]string{"fig2": o.renders["fig2"]}
	ids := make([]string, sideOps)
	specs := make([]api.JobSpec, sideOps)
	for i := range specs {
		specs[i] = api.JobSpec{Experiments: []string{"fig2"}, Scale: "tiny", FaultSeed: uint64(i + 1)}
	}
	steps := []struct {
		name string
		f    func(i int) error
	}{
		{"api.store_allocate_id_ms", func(i int) (err error) { ids[i], err = st.AllocateID(); return err }},
		{"api.store_create_job_ms", func(i int) error {
			return st.CreateJob(api.JobRecord{ID: ids[i], Client: "side", Spec: specs[i], CreatedUnixNS: time.Now().UnixNano()})
		}},
		{"api.store_write_result_ms", func(i int) error {
			return st.WriteResult(&api.Result{ID: ids[i], State: api.StateDone, Renders: renders})
		}},
		{"api.cache_write_ms", func(i int) error {
			return st.WriteCached(&api.CacheEntry{Fingerprint: specs[i].ConfigFingerprint(), SourceJob: ids[i], Renders: renders})
		}},
		{"api.cache_load_ms", func(i int) error {
			_, err := st.LoadCached(specs[i].ConfigFingerprint())
			return err
		}},
	}
	for _, s := range steps {
		v, err := timeOps(sideOps, s.f)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		L[s.name] = v
	}

	journals := make([]*journal.Journal, sideOps)
	defer func() {
		for _, j := range journals {
			if j != nil {
				j.Close()
			}
		}
	}()
	hash := journal.ConfigHash("perfbench-side")
	v, err := timeOps(sideOps, func(i int) (err error) {
		journals[i], err = journal.Open(filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", i)), hash, journal.Options{SyncEvery: 1})
		return err
	})
	if err != nil {
		return fmt.Errorf("journal.open: %w", err)
	}
	L["journal.open_ms"] = v
	unit := struct {
		Samples []float64 `json:"samples"`
	}{make([]float64, 64)}
	j := journals[0]
	v, err = timeOps(sideOps, func(i int) error { return j.Record(fmt.Sprintf("unit/%d", i), unit) })
	if err != nil {
		return fmt.Errorf("journal.record: %w", err)
	}
	L["journal.record_ms"] = v

	return sideLeases(L, dir, ids)
}

// sideLeases times one claim, renewal, guarded no-op and release per side
// job, in that order, as a fleet worker runs a job.
func sideLeases(L map[string]float64, dir string, ids []string) error {
	m := &lease.Manager{WorkerID: "perfbench", TTL: 3 * time.Second}
	handles := make([]*lease.Handle, len(ids))
	jobDir := func(i int) string { return filepath.Join(dir, "jobs", ids[i]) }
	steps := []struct {
		name string
		f    func(i int) error
	}{
		{"lease.claim_ms", func(i int) (err error) { handles[i], err = m.Claim(jobDir(i), ids[i]); return err }},
		{"lease.renew_ms", func(i int) error { return handles[i].Renew(1) }},
		{"lease.guard_ms", func(i int) error { return handles[i].Guard(func() error { return nil }) }},
		{"lease.release_ms", func(i int) error { return handles[i].Release() }},
	}
	for _, s := range steps {
		v, err := timeOps(len(ids), s.f)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		L[s.name] = v
	}
	return nil
}

// serviceLayers derives the per-layer metrics of one traced service run.
func serviceLayers(L map[string]float64, run *serviceRun) error {
	hits, misses, acks := run.split()
	var err error
	pct := func(name string, ds []time.Duration, q float64) {
		v, ok := tail(ms(ds), q)
		if !ok && err == nil {
			err = fmt.Errorf("%s: %d samples are too few for p%.0f; raise --seconds", name, len(ds), 100*q)
		}
		L[name] = v
	}
	p50, _, perS := run.medians()
	L["api.miss_p50_ms"] = p50
	L["api.jobs_per_s"] = perS
	L["api.submit_p50_ms"] = median(ms(acks))
	pct("api.submit_p95_ms", acks, 0.95)
	L["api.hit_p50_ms"] = median(ms(hits))
	pct("api.hit_p95_ms", hits, 0.95)
	pct("api.miss_p95_ms", misses, 0.95)
	if err != nil {
		return err
	}
	var lags, waits, execs []time.Duration
	for _, s := range run.load.samples {
		lags = append(lags, s.lag)
		if !s.hit {
			waits = append(waits, s.queueWait)
			execs = append(execs, s.exec)
		}
	}
	L["api.sse_lag_ms"] = median(ms(lags))
	L["api.queue_wait_ms"] = median(ms(waits))
	L["api.exec_ms"] = median(ms(execs))

	count := func(name string) int { return int(run.reg.Counter(name).Load()) }
	hitsN, missesN := count(wire.APICacheHits), count(wire.APICacheMisses)
	L["api.cache_hit_ratio"] = ratio{hitsN, hitsN + missesN}.Value()
	L["info.cache_lookups"] = float64(hitsN + missesN)

	return nil
}

// retainedJobs is how many cache-hit jobs jobRetained admits.
const retainedJobs = 200

// jobRetained measures the heap a server keeps per admitted job with the
// library's default event ring (the service workloads shrink it; see
// eventsCap): one cache miss, then retainedJobs hits of the same spec,
// each awaited on its SSE stream. It returns the jobs attempted and the
// heap growth per hit in KiB.
func jobRetained(o *oracle, dir string, tr *tracer) (int, float64, error) {
	_, end := tr.begin("api.job_retained", 0)
	defer end()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	log, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	srv, err := bootService(filepath.Join(dir, "store"), nil, 0, log)
	if err != nil {
		return 0, 0, err
	}
	defer srv.close()
	if err := awaitReady(hc, srv.base); err != nil {
		return 0, 0, err
	}
	spec := api.JobSpec{Experiments: []string{"fig2"}, Scale: "tiny"}
	var before runtime.MemStats
	for i := 0; i <= retainedJobs; i++ {
		_, res, err := submitAndWait(hc, srv.base, spec, "retained", nil, 0)
		if err == nil && (res.State != api.StateDone || len(o.check(res.Renders)) > 0) {
			err = fmt.Errorf("job %s: %s or wrong renders", res.ID, res.State)
		}
		if err != nil {
			return i + 1, 0, fmt.Errorf("api.job_retained: %w", err)
		}
		if i == 0 {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	grown := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	return retainedJobs + 1, grown / retainedJobs / 1024, nil
}

// storeScan seeds a store in dir as service-deepstore's, then times
// Store.Scan over it as vsmoothd's boot recovery and each fleet scan run
// it: the median of three scans, in ms.
func storeScan(o *oracle, dir string, tr *tracer) (float64, error) {
	_, end := tr.begin("harness.seed_store", 0)
	n := deepstore.seedJobs
	err := seedStore(dir, o, n)
	end()
	if err != nil {
		return 0, fmt.Errorf("seed store: %w", err)
	}
	st, err := api.OpenStore(dir)
	if err != nil {
		return 0, err
	}
	return timeOps(3, func(int) error {
		_, end := tr.begin("api.store_scan", 0)
		defer end()
		jobs, err := st.Scan(nil)
		if err == nil && len(jobs) != n {
			err = fmt.Errorf("Store.Scan found %d of %d jobs", len(jobs), n)
		}
		return err
	})
}
