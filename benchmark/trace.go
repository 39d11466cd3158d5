package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one benchmark-owned interval around a call into a layer. Parent is
// the index of the span that caused it (−1 for a root); spans of one
// operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory and writes them out when the pass ends. A nil
// tracer records nothing, so the untraced pass runs the same code paths
// without the bookkeeping.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh operation identifier.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// millis returns a closed span's duration in milliseconds.
func (t *tracer) millis(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.spans[id].End-t.spans[id].Start) / 1e6
}

// write stores the spans together with the self time each span name
// accumulated: a span's duration minus what its children cover.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]float64{}
	for i, ns := range selfTimes(t.spans) {
		self[t.spans[i].Name] += float64(ns) / 1e6
	}
	b, err := json.Marshal(struct {
		SelfMillis map[string]float64 `json:"self_ms"`
		Spans      []span             `json:"spans"`
	}{self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
