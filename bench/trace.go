package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the bench made into a layer. Spans of one op or
// one join share a root; self time is a span minus its children.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them as JSONL when the run
// ends. A nil tracer records nothing, so untraced runs pay one nil check
// per call site.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id and
// the function that closes it.
func (t *tracer) begin(parent int64, name string) (int64, func()) {
	if t == nil {
		return parent, func() {}
	}
	start := time.Since(t.epoch)
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: int64(start)})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id-1].EndNs = int64(end)
		t.mu.Unlock()
	}
}

// do times fn as one span.
func (t *tracer) do(parent int64, name string, fn func()) {
	_, end := t.begin(parent, name)
	fn()
	end()
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one reported
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one reported
		return err
	}
	return f.Close()
}
