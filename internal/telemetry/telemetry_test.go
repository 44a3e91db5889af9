package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

func TestTimingStats(t *testing.T) {
	r := NewRegistry()
	tm := r.Timing("wall")
	tm.Observe(100 * time.Millisecond)
	tm.Observe(300 * time.Millisecond)
	s := tm.Stats()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MeanMs != 200 {
		t.Errorf("mean = %g, want 200 (exact, from tracked sum)", s.MeanMs)
	}
	if s.MaxMs != 300 {
		t.Errorf("max = %g, want 300 (exact)", s.MaxMs)
	}
	if s.P50Ms < 0 || s.P50Ms > s.MaxMs {
		t.Errorf("p50 = %g outside [0, max]", s.P50Ms)
	}
}

func TestSnapshotRoundTripsAsJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("x.count").Add(3)
	r.Gauge("x.gauge").Set(-1)
	r.Timing("x.wall").Observe(time.Millisecond)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["x.count"] != 3 || back.Gauges["x.gauge"] != -1 || back.Timings["x.wall"].Count != 1 {
		t.Errorf("snapshot did not round-trip: %+v", back)
	}
}

// The registry and its instruments are fed from sweep workers; this is the
// surface the CI -race step exercises.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	tr := NewTrace(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Add(1)
				r.Timing("t").Observe(time.Microsecond)
				tr.Emit(Event{Kind: "test"})
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
	if tr.Total() != 8000 || tr.Len() != 64 || tr.Dropped() != 8000-64 {
		t.Errorf("trace total/len/dropped = %d/%d/%d", tr.Total(), tr.Len(), tr.Dropped())
	}
}

func TestTraceRingOrderAndDrop(t *testing.T) {
	tr := NewTrace(4)
	tr.now = func() time.Time { return time.Unix(0, 42) }
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Kind: "k", Value: float64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(2 + i) // events 0 and 1 were overwritten
		if ev.Seq != wantSeq || ev.Value != float64(wantSeq) {
			t.Errorf("event %d: seq=%d value=%g, want seq=%d", i, ev.Seq, ev.Value, wantSeq)
		}
		if ev.T != 42 {
			t.Errorf("event %d: T=%d, want 42", i, ev.T)
		}
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestTraceWriteJSONL(t *testing.T) {
	tr := NewTrace(8)
	tr.Emit(Event{Kind: "a.b", ID: "fig1", Detail: "x", Attempt: 2})
	tr.Emit(Event{Kind: "c.d", Value: 1.5})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "a.b" || ev.ID != "fig1" || ev.Attempt != 2 {
		t.Errorf("first line decoded to %+v", ev)
	}
}

func TestNilTraceEmitIsSafe(t *testing.T) {
	var tr *Trace
	tr.Emit(Event{Kind: "x"}) // must not panic: disabled hooks pass nil traces around
}

// TestTraceGrowsLazilyWithSameOutput pins the on-demand ring against a
// model of the preallocated one it replaced: at every capacity and event
// count, the retained events (drop-oldest order, Seq), Len, Total,
// Dropped and the WriteJSONL bytes are what a full-size ring gives, while
// the ring never holds room for more than it has needed (or capacity).
func TestTraceGrowsLazilyWithSameOutput(t *testing.T) {
	for _, capacity := range []int{1, 3, 8, 9, 100} {
		for _, n := range []int{0, 1, 7, 8, 9, 50, 250} {
			tr := NewTrace(capacity)
			tr.now = func() time.Time { return time.Unix(0, 7) }
			var all []Event
			for i := 0; i < n; i++ {
				ev := Event{Kind: "k", ID: fmt.Sprint("e", i), Value: float64(i)}
				tr.Emit(ev)
				ev.Seq, ev.T = uint64(i), 7
				all = append(all, ev)
			}
			kept := all[max(0, n-capacity):]
			name := fmt.Sprintf("capacity %d, %d events", capacity, n)
			if got := tr.Events(); !reflect.DeepEqual(got, append([]Event{}, kept...)) {
				t.Errorf("%s: events %+v, want %+v", name, got, kept)
			}
			if tr.Len() != len(kept) || tr.Total() != uint64(n) || tr.Dropped() != uint64(n-len(kept)) {
				t.Errorf("%s: len/total/dropped = %d/%d/%d, want %d/%d/%d",
					name, tr.Len(), tr.Total(), tr.Dropped(), len(kept), n, n-len(kept))
			}
			var got, want bytes.Buffer
			if err := tr.WriteJSONL(&got); err != nil {
				t.Fatal(err)
			}
			enc := json.NewEncoder(&want)
			for _, ev := range kept {
				enc.Encode(ev)
			}
			if got.String() != want.String() {
				t.Errorf("%s: WriteJSONL\n%s\nwant\n%s", name, got.String(), want.String())
			}
			if c := cap(tr.buf); c > capacity || c > max(2*n, minTraceGrowth) {
				t.Errorf("%s: ring holds room for %d events", name, c)
			}
		}
	}
}
