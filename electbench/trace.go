package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the tracer was created
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`   // index of the enclosing span, -1 for a root
	Election int    `json:"election"` // election index, -1 outside the election loop
}

// layer is the program layer a span's name belongs to: its prefix before
// the first dot ("sim.run" → "sim").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, election int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Election: election})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
}

// selfSeconds sums, per layer, each span's duration minus the part its
// direct children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.layer()] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// spanCostNs measures what recording one span costs, on a scratch tracer.
func spanCostNs() float64 {
	const k = 1 << 16
	t := newTracer()
	t.spans = make([]span, 0, k)
	start := time.Now()
	for i := 0; i < k; i++ {
		t.end(t.begin("bench.cost", -1, -1))
	}
	return float64(time.Since(start).Nanoseconds()) / k
}
