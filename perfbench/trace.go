package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Spans of one operation share Op; Parent
// is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced operations pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// selfNs sums, per span name, each span's duration minus the time its
// child spans cover.
func (t *tracer) selfNs() map[string]int64 {
	self := map[string]int64{}
	if t == nil {
		return self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
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
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
