package api_test

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/lease"
)

// deleteJob issues DELETE /jobs/{id} and returns the status code.
func deleteJob(t *testing.T, base, id string) int {
	t.Helper()
	req, _ := http.NewRequest("DELETE", base+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRefusedFleetCancelRequestsNothing pins that a DELETE refused with
// 409 (a peer holds the job's lease) leaves no cancel behind: once the
// peer lets go and this worker claims the job, it runs to done instead of
// finishing "canceled before start".
func TestRefusedFleetCancelRequestsNothing(t *testing.T) {
	dir := t.TempDir()
	park := make(chan struct{})
	_, hs := newFleetServer(t, dir, "worker-a", func(c *api.Config) {
		c.DisableCache = true
		c.BeforeJob = func(string) { <-park }
	})
	st, err := api.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	var ack map[string]string
	if resp := submit(t, hs.URL, "tenant", tinySpec(), &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	id := ack["id"]

	// The second worker takes the job while worker-a's only worker is
	// parked before its claim.
	peer := &lease.Manager{WorkerID: "worker-b", TTL: time.Minute}
	h, err := peer.Claim(filepath.Join(st.Dir(), "jobs", id), id)
	if err != nil {
		t.Fatal(err)
	}
	if code := deleteJob(t, hs.URL, id); code != http.StatusConflict {
		t.Fatalf("DELETE of a peer-owned job: status %d, want 409", code)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	close(park)

	res := waitStoreResult(t, st, id, time.Minute)
	if res.State != api.StateDone {
		t.Fatalf("job after a refused cancel: %s (%q), want done", res.State, res.Error)
	}
}

// TestClaimLostResumeIsAnnounced pins that a suspended job whose resume
// loses the lease claim to a peer steps back to queued as a real
// transition: the job's event trace records api.job.queued and SSE
// watchers get a progress frame in the queued state.
func TestClaimLostResumeIsAnnounced(t *testing.T) {
	dir := t.TempDir()
	_, hs := newFleetServer(t, dir, "worker-a", func(c *api.Config) {
		c.Preempt = true
		c.DisableCache = true
	})
	st, err := api.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	bulk := longSpec()
	bulk.Priority = api.PriorityBulk
	var ack map[string]string
	if resp := submit(t, hs.URL, "tenant-bulk", bulk, &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit bulk: status %d", resp.StatusCode)
	}
	bulkID := ack["id"]
	waitRunningUnits(t, hs.URL, bulkID, 3)

	// An interactive arrival preempts the bulk job and keeps the only
	// worker slot busy while the test, playing a peer, takes the released
	// lease.
	ia := api.JobSpec{Experiments: []string{"fig8"}, Scale: "tiny", Priority: api.PriorityInteractive}
	if resp := submit(t, hs.URL, "tenant-ia", ia, &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit interactive: status %d", resp.StatusCode)
	}
	jobDir := filepath.Join(st.Dir(), "jobs", bulkID)
	deadline := time.Now().Add(time.Minute)
	for {
		var s api.Status
		getJSON(t, hs.URL+"/jobs/"+bulkID, &s)
		if l, err := lease.Load(nil, jobDir); s.State == api.StateSuspended && err == nil && l.Released {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bulk job never suspended with a released lease (state %s)", s.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp, next := openSSE(t, ctx, hs.URL, bulkID)
	defer resp.Body.Close()
	peer := &lease.Manager{WorkerID: "worker-b", TTL: time.Minute}
	h, err := peer.Claim(jobDir, bulkID)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()

	for {
		ev, ok := next()
		if !ok {
			t.Fatal("SSE stream ended before the claim-lost job showed as queued")
		}
		if ev.name != "progress" {
			continue
		}
		var s api.Status
		if err := json.Unmarshal([]byte(ev.data), &s); err != nil {
			t.Fatal(err)
		}
		if s.State == api.StateQueued {
			break
		}
	}

	r, err := http.Get(hs.URL + "/jobs/" + bulkID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var kinds []string
	dec := json.NewDecoder(r.Body)
	for dec.More() {
		var ev struct{ Kind string }
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, ev.Kind)
	}
	trail := strings.Join(kinds, " ")
	if !strings.Contains(trail, "api.job.suspended") ||
		!strings.Contains(trail[strings.LastIndex(trail, "api.job.suspended"):], "api.job.queued") {
		t.Fatalf("event trace has no api.job.queued after the suspension: %s", trail)
	}
}
