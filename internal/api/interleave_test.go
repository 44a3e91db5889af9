package api_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/lease"
	"voltsmooth/internal/lease/leasetest"
)

var lifecycleSeed = flag.Int64("lifecycle.seed", 0, "replay one TestLifecycleInterleavings seed")

// interleaveSpecs are the campaigns the harness submits: two near-instant
// ones and a multi-experiment one long enough to be preempted mid-run
// (the last, which the preempt step submits as bulk work).
var interleaveSpecs = []api.JobSpec{
	{Experiments: []string{"fig1"}, Scale: "tiny"},
	{Experiments: []string{"fig11"}, Scale: "tiny"},
	{Experiments: []string{"fig6", "fig12", "fig4"}, Scale: "tiny"},
}

// TestLifecycleInterleavings is the server-level half of the lifecycle
// harness (the table-level half is TestLifecycleRandomEventSequences). A
// seed fixes a schedule of submissions at every priority, cancels, fences
// (a test-held lease taken on a job and released), drains, and crash
// recoveries (the server closed and re-opened over its store), run
// against a two-worker fleet (odd seeds) or a single server whose
// identical submissions follow one another and get promoted when their
// leader is cancelled (even seeds). Once the schedule ends, every acked
// job must reach a durable result, and:
//
//   - no acked job is lost: each has a result, done — or canceled when a
//     DELETE was accepted for it;
//   - at most one runner owns a job: the lease.History oracle holds;
//   - a suspended job always resumes: nothing is left non-terminal;
//   - every done job renders byte-identically to an uncontended run.
//
// The seed fixes the schedule, not the goroutine interleaving; a failure
// prints the flag that replays its schedule.
func TestLifecycleInterleavings(t *testing.T) {
	// One single-server and one fleet schedule keep the harness within a
	// few seconds of the suite (and the race run within its timeout);
	// -lifecycle.seed runs any other schedule.
	seeds := []int64{2, 3}
	if *lifecycleSeed != 0 {
		seeds = []int64{*lifecycleSeed}
	}
	const steps = 12
	ref := referenceRenders(t)
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("replay: go test -run 'TestLifecycleInterleavings' ./internal/api -args -lifecycle.seed=%d", seed)
				}
			}()
			w := newWorld(t, seed, seed%2 == 1)
			w.run(steps)
			w.check(ref)
			t.Logf("%d preemptions reported", w.preemptions)
		})
	}
}

// referenceRenders runs every interleave spec once on an uncontended
// server.
func referenceRenders(t *testing.T) []map[string]string {
	_, hs := newTestServer(t, func(c *api.Config) { c.DisableCache = true })
	out := make([]map[string]string, len(interleaveSpecs))
	for i, spec := range interleaveSpecs {
		var ack map[string]string
		if resp := submit(t, hs.URL, "ref", spec, &ack); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("reference submit: status %d", resp.StatusCode)
		}
		if st := waitTerminal(t, hs.URL, ack["id"]); st.State != api.StateDone {
			t.Fatalf("reference %v: %s (%s)", spec.Experiments, st.State, st.Error)
		}
		var res api.Result
		getJSON(t, hs.URL+"/jobs/"+ack["id"]+"/result", &res)
		out[i] = res.Renders
	}
	return out
}

// node is one server of the harness, re-openable over the shared store.
type node struct {
	worker string
	srv    *api.Server
	hs     *httptest.Server
}

type world struct {
	t        *testing.T
	rng      *rand.Rand
	dir      string
	st       *api.Store
	fleet    bool
	nodes    []*node
	acked    map[string]int // job ID → spec index
	canceled map[string]bool
	// preemptions totals the suspensions the servers report.
	preemptions int
}

func newWorld(t *testing.T, seed int64, fleet bool) *world {
	dir := t.TempDir()
	st, err := api.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, rng: rand.New(rand.NewSource(seed)), dir: dir, st: st, fleet: fleet,
		acked: map[string]int{}, canceled: map[string]bool{}}
	workers := []string{"solo"}
	if fleet {
		workers = []string{"worker-a", "worker-b"}
	}
	for _, id := range workers {
		n := &node{worker: id}
		w.open(n)
		w.nodes = append(w.nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range w.nodes {
			n.hs.Close()
			n.srv.Close()
		}
	})
	return w
}

// open (re)starts a node's server over the shared store — a boot, with
// crash recovery of whatever the store holds.
func (w *world) open(n *node) {
	st, err := api.OpenStore(w.dir)
	if err != nil {
		w.t.Fatal(err)
	}
	cfg := api.Config{
		Store:                 st,
		JobWorkers:            1,
		DefaultSessionWorkers: 1,
		QueueCap:              64,
		Preempt:               true,
		Logf:                  w.t.Logf,
	}
	if w.fleet {
		cfg.Fleet = true
		cfg.WorkerID = n.worker
		cfg.LeaseTTL = 500 * time.Millisecond
		cfg.ScanInterval = 100 * time.Millisecond
	}
	srv, err := api.New(cfg)
	if err != nil {
		w.t.Fatal(err)
	}
	n.srv, n.hs = srv, httptest.NewServer(srv.Handler())
}

func (w *world) pickNode() *node { return w.nodes[w.rng.Intn(len(w.nodes))] }

// pickJob returns a random acked job ID in submission order, or "".
func (w *world) pickJob() string {
	if len(w.acked) == 0 {
		return ""
	}
	ids := make([]string, 0, len(w.acked))
	for id := range w.acked {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids[w.rng.Intn(len(ids))]
}

// submit posts interleaveSpecs[spec]; a nonzero faultSeed gives the job
// its own fingerprint, so it executes instead of being served from an
// identical job's result (fault_seed steers only figx-recovery's injected
// faults, so the renders stay those of the reference).
func (w *world) submit(n *node, spec int, priority string, faultSeed uint64) string {
	s := interleaveSpecs[spec]
	s.Priority = priority
	s.FaultSeed = faultSeed
	var ack map[string]string
	if resp := submit(w.t, n.hs.URL, "tenant", s, &ack); resp.StatusCode != http.StatusAccepted {
		return ""
	}
	w.acked[ack["id"]] = spec
	return ack["id"]
}

func (w *world) cancel(n *node, id string) {
	if id == "" {
		return
	}
	if deleteJob(w.t, n.hs.URL, id) == http.StatusOK {
		w.canceled[id] = true
	}
}

func (w *world) run(steps int) {
	priorities := []string{api.PriorityBulk, api.PriorityBatch, api.PriorityInteractive}
	for step := 0; step < steps; step++ {
		switch op := w.rng.Intn(11); {
		case op < 3: // submit, at any priority
			w.submit(w.pickNode(), w.rng.Intn(len(interleaveSpecs)), priorities[w.rng.Intn(len(priorities))], 0)
		case op == 3: // preempt: long bulk work, then an interactive arrival
			n := w.pickNode()
			w.submit(n, len(interleaveSpecs)-1, api.PriorityBulk, uint64(step+1))
			time.Sleep(time.Duration(50+w.rng.Intn(150)) * time.Millisecond)
			w.submit(n, w.rng.Intn(2), api.PriorityInteractive, uint64(step+1))
		case op == 4:
			w.cancel(w.pickNode(), w.pickJob())
		case op == 5 && w.fleet: // fence: a test-held lease on the job, released after a pause
			if id := w.pickJob(); id != "" {
				m := &lease.Manager{WorkerID: "intruder", TTL: time.Second}
				if h, err := m.Claim(filepath.Join(w.dir, "jobs", id), id); err == nil {
					time.Sleep(time.Duration(w.rng.Intn(50)) * time.Millisecond)
					h.Release()
				}
			}
		case op == 5: // follower-promote: identical submissions, the leader cancelled
			n, spec := w.pickNode(), w.rng.Intn(len(interleaveSpecs))
			leader := w.submit(n, spec, api.PriorityBatch, uint64(step+1))
			w.submit(n, spec, api.PriorityBatch, uint64(step+1))
			w.cancel(n, leader)
		case op == 6: // drain with a short budget, then reboot
			n := w.pickNode()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(w.rng.Intn(200))*time.Millisecond)
			n.srv.Drain(ctx)
			cancel()
			n.hs.Close()
			n.srv.Close()
			w.open(n)
		case op == 7 || op == 8: // crash-recover: hard stop and reboot over the store
			n := w.pickNode()
			n.hs.Close()
			n.srv.Close()
			w.open(n)
		default:
			time.Sleep(time.Duration(w.rng.Intn(100)) * time.Millisecond)
		}
	}
}

func (w *world) check(ref []map[string]string) {
	t := w.t
	outcomes := map[api.JobState]int{}
	for id, spec := range w.acked {
		res := waitStoreResult(t, w.st, id, 2*time.Minute)
		outcomes[res.State]++
		switch {
		case res.State == api.StateCanceled && w.canceled[id]:
		case res.State == api.StateDone:
			if !reflect.DeepEqual(res.Renders, ref[spec]) {
				t.Errorf("job %s: renders differ from the uncontended run of %v", id, interleaveSpecs[spec].Experiments)
			}
		default:
			t.Errorf("job %s: ended %s (%q); cancel accepted: %v", id, res.State, res.Error, w.canceled[id])
		}
		if w.fleet {
			hist, err := lease.History(nil, filepath.Join(w.dir, "jobs", id))
			if err != nil {
				t.Fatal(err)
			}
			leasetest.AssertExclusiveOwnership(t, hist)
		}
	}
	t.Logf("%d acked jobs, %d cancels accepted, outcomes %v", len(w.acked), len(w.canceled), outcomes)
	// Every server's view converges on the store: nothing stays
	// suspended, queued, or running once every result is durable.
	for _, n := range w.nodes {
		for id := range w.acked {
			deadline := time.Now().Add(10 * time.Second)
			for {
				var st api.Status
				getJSON(t, n.hs.URL+"/jobs/"+id, &st)
				if st.State == api.StateDone || st.State == api.StateCanceled {
					w.preemptions += st.Preemptions
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("%s: job %s still %s after its result is durable", n.worker, id, st.State)
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
}
