package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one run share Run; Parent is 0 for a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_unix_ns"`
	EndNS   int64  `json:"end_unix_ns"`
	Run     string `json:"run"`
}

// tracer keeps spans in memory until write. A nil tracer records
// nothing, so untraced runs pay no more than a nil check per call.
type tracer struct {
	run   string
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID and the function that closes it.
func (t *tracer) begin(name string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Parent: parent, Name: name, StartNS: start.UnixNano(), Run: t.run})
	idx := len(t.spans) - 1
	t.spans[idx].ID = len(t.spans)
	t.mu.Unlock()
	return idx + 1, func() {
		end := time.Now().UnixNano()
		t.mu.Lock()
		t.spans[idx].EndNS = end
		t.mu.Unlock()
	}
}

// write stores every span as one JSON line at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
