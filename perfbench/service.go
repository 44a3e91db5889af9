package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/experiments"
	"voltsmooth/internal/telemetry"
	"voltsmooth/internal/telemetry/wire"
)

// serviceConfig shapes one service workload: a round's clients send
// requests for roundLoad or until they have sent roundJobs between them.
type serviceConfig struct {
	roundLoad time.Duration
	roundJobs int
	// seedJobs, when > 0, makes the workload read-only: one store of
	// seedJobs finished jobs is seeded before the first round, every
	// round boots over it, and the clients fetch stored results.
	// Otherwise every round boots over a fresh store and the clients
	// submit jobs.
	seedJobs int
}

// service-churn's rounds end after a fixed count of jobs: the server
// keeps every job in memory, so a count fixes the memory a round grows
// to, where a fixed time would make a faster server read as a bigger
// one.
var churn = serviceConfig{roundLoad: 10 * time.Second, roundJobs: 400}

// service-deepstore's clients only read, so no file is created or
// removed while it is timed (metrics.go says why that matters). Its boots
// parse every stored result, so its set-up is scan-bound.
var deepstore = serviceConfig{roundLoad: 10 * time.Second, roundJobs: 2000, seedJobs: 3000}

// eventsCap bounds each job's event ring. vsmoothd has no flag for it and
// the library default (4096 events, about 320 KiB allocated per job and
// kept for the server's life) would grow the process by gigabytes over
// one run. A fig2 job emits a few dozen events, so 64 keeps every one;
// the default's cost is measured on its own as api.job_retained_kb.
const eventsCap = 64

// jobTimeout bounds one job from submission to its terminal frame; a job
// acknowledged but not terminal by then is lost.
const jobTimeout = 60 * time.Second

// service is one in-process vsmoothd: api.New + Handler on a loopback
// listener, configured with vsmoothd's flag defaults except that quotas
// are off (the default 1 job/s per client would measure the limit).
// Server logs go to a file in the run directory, one write per line as
// vsmoothd's go to stderr.
type service struct {
	srv   *api.Server
	hs    *http.Server
	base  string
	serve chan error
}

func bootService(dir string, reg *telemetry.Registry, events int, log *os.File) (*service, error) {
	st, err := api.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	srv, err := api.New(api.Config{
		EventsCap:             events,
		Logf:                  func(format string, args ...any) { fmt.Fprintf(log, "vsmoothd: "+format+"\n", args...) },
		Store:                 st,
		QueueCap:              16,
		JobWorkers:            2,
		DefaultSessionWorkers: 4,
		Retries:               3,
		QuotaBurst:            5,
		SyncEvery:             1,
		SSEHeartbeat:          15 * time.Second,
		Metrics:               reg,
		LeaseTTL:              3 * time.Second,
		Preempt:               true,
		AgeAfter:              30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		srv: srv,
		hs: &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       60 * time.Second,
			IdleTimeout:       120 * time.Second,
			MaxHeaderBytes:    1 << 20,
		},
		base:  "http://" + ln.Addr().String(),
		serve: make(chan error, 1),
	}
	go func() { s.serve <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops serving, then stops the job workers, and waits for both.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	cancel()
	s.srv.Close()
	<-s.serve
}

// awaitReady polls /readyz until it answers 200.
func awaitReady(c *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server not ready within 30s")
}

// bootTimed boots a server over dir and returns it with the time from
// api.New until /readyz returned 200, boot recovery included.
func bootTimed(c *http.Client, dir string, reg *telemetry.Registry, log *os.File) (*service, time.Duration, error) {
	start := time.Now()
	s, err := bootService(dir, reg, eventsCap, log)
	if err != nil {
		return nil, 0, err
	}
	if err := awaitReady(c, s.base); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// seedStore stores n finished jobs, each a normalized `run all` spec with
// the oracle's renders as its result, through the store's own API.
func seedStore(dir string, o *oracle, n int) error {
	st, err := api.OpenStore(dir)
	if err != nil {
		return err
	}
	attempts := map[string]int{}
	for _, e := range experiments.All() {
		attempts[e.ID] = 1
	}
	spec, err := api.JobSpec{Experiments: []string{"all"}, Scale: "tiny"}.Validate()
	if err != nil {
		return err
	}
	now := time.Now().UnixNano()
	jobs := make(chan int)
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < cap(errs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				id := api.JobID(i)
				if err := st.CreateJob(api.JobRecord{ID: id, Client: "seed", Spec: spec, CreatedUnixNS: now}); err != nil {
					errs <- err
					return
				}
				if err := st.WriteResult(&api.Result{
					ID: id, State: api.StateDone, Renders: o.renders, Attempts: attempts,
					StartedUnixNS: now, FinishedUnixNS: now,
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
feed:
	for i := 1; i <= n; i++ {
		select {
		case jobs <- i:
		case err = <-errs:
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	close(errs)
	if err != nil {
		return err
	}
	return <-errs
}

// jobSample is one job as a client saw it.
type jobSample struct {
	submitted  time.Time
	ack, total time.Duration // POST until 202; POST until the terminal frame
	hit        bool
	// From the job's own timestamps: terminal frame receipt minus
	// finished, started minus created, finished minus started.
	lag, queueWait, exec time.Duration
}

// load is what the closed-loop clients collected.
type load struct {
	mu                       sync.Mutex
	samples                  []jobSample
	attempted, refused, lost int
	failed, mismatched       int
}

func (l *load) add(s jobSample) {
	l.mu.Lock()
	l.samples = append(l.samples, s)
	l.mu.Unlock()
}

func (l *load) count(field *int) {
	l.mu.Lock()
	*field++
	l.mu.Unlock()
}

// runClient is one closed-loop client: it submits its next spec only
// after the previous job's terminal frame arrived on its SSE stream,
// until the deadline or, when n > 0, n jobs. Every job is checked; only
// a measured round's are kept for timing.
func runClient(c *http.Client, base string, o *oracle, gen *specGen, name string, until time.Time, n int, measured bool, l *load, tr *tracer, parent int) {
	for i := 0; (n <= 0 || i < n) && time.Now().Before(until); i++ {
		spec, _ := gen.next()
		l.count(&l.attempted)
		jobSpan, endJob := tr.begin("job", parent)
		s, res, err := submitAndWait(c, base, spec, name, tr, jobSpan)
		endJob()
		switch {
		case errors.Is(err, errRefused):
			l.count(&l.refused)
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		case err != nil:
			l.count(&l.lost)
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		case res.State != api.StateDone:
			l.count(&l.failed)
			fmt.Fprintf(os.Stderr, "perfbench: %s: job %s %s: %s\n", name, res.ID, res.State, res.Error)
		case len(res.Renders) != 1 || len(o.check(res.Renders)) > 0:
			l.count(&l.mismatched)
			fmt.Fprintf(os.Stderr, "perfbench: %s: job %s renders differ from the oracle\n", name, res.ID)
		case measured:
			l.add(s)
		}
	}
}

var errRefused = errors.New("submission refused")

// runReader is one closed-loop client of a read-only workload: it fetches
// the stored result of each job its generator names, one at a time,
// until the deadline or, when n > 0, n fetches, and checks every render.
// Each fetch is recorded as a cache miss.
func runReader(c *http.Client, base string, o *oracle, gen *readGen, name string, until time.Time, n int, measured bool, l *load) {
	for i := 0; (n <= 0 || i < n) && time.Now().Before(until); i++ {
		id := gen.next()
		l.count(&l.attempted)
		start := time.Now()
		res, err := fetchResult(c, base, id, name)
		d := time.Since(start)
		switch {
		case errors.Is(err, errRefused):
			l.count(&l.refused)
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		case err != nil:
			l.count(&l.lost)
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		case res.ID != id || res.State != api.StateDone:
			l.count(&l.failed)
			fmt.Fprintf(os.Stderr, "perfbench: %s: job %s: got job %s %s\n", name, id, res.ID, res.State)
		case len(res.Renders) != len(o.digests) || len(o.check(res.Renders)) > 0:
			l.count(&l.mismatched)
			fmt.Fprintf(os.Stderr, "perfbench: %s: job %s renders differ from the oracle\n", name, id)
		case measured:
			l.add(jobSample{submitted: start, total: d})
		}
	}
}

// fetchResult reads a finished job's result: GET /jobs/{id}/result.
func fetchResult(c *http.Client, base, id, client string) (*api.Result, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Client", client)
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("job %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("%w: job %s result HTTP %d", errRefused, id, resp.StatusCode)
	}
	var res api.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, fmt.Errorf("job %s result: %w", id, err)
	}
	return &res, nil
}

// submitAndWait posts spec, then reads the job's SSE stream until its
// terminal result frame.
func submitAndWait(c *http.Client, base string, spec api.JobSpec, client string, tr *tracer, parent int) (jobSample, *api.Result, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobSample{}, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return jobSample{}, nil, err
	}
	req.Header.Set("X-Client", client)
	req.Header.Set("Content-Type", "application/json")
	s := jobSample{submitted: time.Now()}
	_, endSubmit := tr.begin("api.submit", parent)
	resp, err := c.Do(req)
	if err != nil {
		endSubmit()
		return s, nil, fmt.Errorf("%w: %v", errRefused, err)
	}
	var ack struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.ack = time.Since(s.submitted)
	endSubmit()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return s, nil, fmt.Errorf("%w: HTTP %d", errRefused, resp.StatusCode)
	}

	_, endWait := tr.begin("api.sse_wait", parent)
	defer endWait()
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+ack.ID+"/events", nil)
	if err != nil {
		return s, nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err = c.Do(req)
	if err != nil {
		return s, nil, fmt.Errorf("job %s lost: %w", ack.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, nil, fmt.Errorf("%w: events HTTP %d", errRefused, resp.StatusCode)
	}
	var status api.Status
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "progress":
			if err := json.Unmarshal([]byte(data), &status); err != nil {
				return s, nil, fmt.Errorf("job %s: progress frame: %w", ack.ID, err)
			}
		case "result":
			recv := time.Now()
			var res api.Result
			if err := json.Unmarshal([]byte(data), &res); err != nil {
				return s, nil, fmt.Errorf("job %s: result frame: %w", ack.ID, err)
			}
			io.Copy(io.Discard, resp.Body) // the stream ends after the result
			s.total = recv.Sub(s.submitted)
			s.hit = res.Cached
			s.lag = recv.Sub(time.Unix(0, res.FinishedUnixNS))
			s.queueWait = time.Duration(res.StartedUnixNS - status.CreatedUnixNS)
			s.exec = time.Duration(res.FinishedUnixNS - res.StartedUnixNS)
			return s, &res, nil
		case "draining":
			return s, nil, fmt.Errorf("job %s lost: server draining", ack.ID)
		}
	}
	return s, nil, fmt.Errorf("job %s lost: stream ended without a result (%v)", ack.ID, sc.Err())
}

// serviceRun is a service workload's measurements, before they become
// metrics.
type serviceRun struct {
	setup  []time.Duration // one boot per measured round
	rounds []roundStats    // one per measured round
	load   *load           // every job; samples only from measured rounds
	reg    *telemetry.Registry
}

// roundStats is one measured round's end-to-end figures: median
// latency, process CPU per request and requests per second.
type roundStats struct {
	p50, cpuPer time.Duration
	perS        float64
}

// runService runs a service workload in rounds until seconds have passed.
// Each round boots a server (set-up), drives nproc closed-loop clients
// (see serviceConfig), then stops the server. Without seeded jobs every
// round boots over a fresh store of its own, so a server that is faster
// does not grow its own store larger and slower. No store is removed
// while the run lasts (metrics.go says why): removing each round's store
// made every later round slower than the one before, from 0.4 s to 2 s
// per 400 churn jobs over 25 s, so the stores stay until the run
// directory is removed at exit. Rounds that start in the first third of
// the time are warm-up, checked but not timed.
func runService(o *oracle, cfg serviceConfig, seed int64, seconds float64, dir string, tr *tracer) (*serviceRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	defer hc.CloseIdleConnections()

	// Telemetry wired as vsmoothd wires it: one registry and trace for
	// the process, the registry also served at /metrics.
	reg := telemetry.NewRegistry()
	uninstall := wire.Install(reg, telemetry.NewTrace(0))
	defer uninstall()

	log, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()

	seeded := filepath.Join(dir, "seeded")
	if cfg.seedJobs > 0 {
		_, end := tr.begin("harness.seed_store", 0)
		t0 := time.Now()
		err := seedStore(seeded, o, cfg.seedJobs)
		end()
		if err != nil {
			return nil, fmt.Errorf("seed store: %w", err)
		}
		fmt.Printf("seeded %d jobs in %.2fs\n", cfg.seedJobs, time.Since(t0).Seconds())
	}

	run := &serviceRun{load: &load{}, reg: reg}
	start := time.Now()
	warm := start.Add(time.Duration(seconds * float64(time.Second) / 3))
	for round := 0; ; round++ {
		measured := round > 0 && time.Now().After(warm)
		roundSpan, end := tr.begin(fmt.Sprintf("round.%d", round), 0)
		_, endBoot := tr.begin("api.boot", roundSpan)
		storeDir := seeded
		if cfg.seedJobs == 0 {
			storeDir = filepath.Join(dir, fmt.Sprintf("store-%d", round))
		}
		srv, setup, err := bootTimed(hc, storeDir, reg, log)
		endBoot()
		if err != nil {
			end()
			return nil, fmt.Errorf("boot: %w", err)
		}
		first := len(run.load.samples)
		cpu0, t0 := cpuTime(), time.Now()
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name, until, n := fmt.Sprintf("client-%d", i), t0.Add(cfg.roundLoad), cfg.roundJobs/clients
				if cfg.seedJobs > 0 {
					gen := newReadGen(seed*1000+int64(round), i, cfg.seedJobs)
					runReader(hc, srv.base, o, gen, name, until, n, measured, run.load)
					return
				}
				gen := newSpecGen(seed*1000+int64(round), i)
				runClient(hc, srv.base, o, gen, name, until, n, measured, run.load, tr, roundSpan)
			}(i)
		}
		wg.Wait()
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		srv.close()
		hc.CloseIdleConnections()
		end()
		fmt.Printf("round %d: boot %.4fs, load %.3fs, cpu %.3fs, %d jobs timed\n", round, setup.Seconds(), wall.Seconds(), cpu.Seconds(), len(run.load.samples)-first)
		if measured {
			// A round's latency is its cache misses' (every fetch of a
			// read-only workload counts as one).
			var misses []float64
			done := run.load.samples[first:]
			for _, s := range done {
				if !s.hit {
					misses = append(misses, float64(s.total))
				}
			}
			if len(done) == 0 || len(misses) == 0 {
				return nil, fmt.Errorf("round %d completed %d requests, %d of them misses", round, len(done), len(misses))
			}
			run.setup = append(run.setup, setup)
			run.rounds = append(run.rounds, roundStats{
				p50:    time.Duration(median(misses)),
				cpuPer: cpu / time.Duration(len(done)),
				perS:   float64(len(done)) / wall.Seconds(),
			})
		}
		// Return the round's memory, so the next round starts as this one did.
		debug.FreeOSMemory()
		if len(run.rounds) >= 2 && time.Since(start).Seconds() >= seconds {
			return run, nil
		}
	}
}

// split returns the measured jobs' latencies by cache outcome.
func (r *serviceRun) split() (hits, misses, acks []time.Duration) {
	for _, s := range r.load.samples {
		acks = append(acks, s.ack)
		if s.hit {
			hits = append(hits, s.total)
		} else {
			misses = append(misses, s.total)
		}
	}
	return hits, misses, acks
}

func (r *serviceRun) failures() int {
	l := r.load
	return l.refused + l.lost + l.failed + l.mismatched
}

// medians returns the median over measured rounds of the round's
// latency and CPU per request, in ms, and of its requests per second.
func (r *serviceRun) medians() (p50, cpu, perS float64) {
	var p50s, cpus []time.Duration
	var rates []float64
	for _, rs := range r.rounds {
		p50s = append(p50s, rs.p50)
		cpus = append(cpus, rs.cpuPer)
		rates = append(rates, rs.perS)
	}
	return median(ms(p50s)), median(ms(cpus)), median(rates)
}

// deepstoreWorkload runs service-deepstore untraced and derives its
// end-to-end metrics.
func deepstoreWorkload(o *oracle, seed int64, seconds float64, dir string) (*result, error) {
	run, err := runService(o, deepstore, seed, seconds, dir, nil)
	if err != nil {
		return nil, err
	}
	p50, cpu, perS := run.medians()
	return &result{
		attempted: run.load.attempted,
		failed:    run.failures(),
		samples:   fmt.Sprintf("%d fetches timed over %d rounds", len(run.load.samples), len(run.rounds)),
		e2e: map[string]float64{
			"setup_s":        median(secs(run.setup)),
			"latency_ms":     p50,
			"cpu_ms":         cpu,
			"requests_per_s": perS,
		},
	}, nil
}
