package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call across a layer boundary. Spans carry names, ids,
// times and counts only — never SQL text, rows or page contents.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root of a tree
	Op     int    `json:"op"`     // shared by every span of one op
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"` // pages, blocks or rows the call moved
}

// tracer records spans in memory; they are written out when the run ends.
// Both replays it serves run every traced call on one goroutine, so the open
// span stack alone determines parentage.
type tracer struct {
	base  time.Time
	spans []span
	open  []int
	op    int
	on    bool
}

func newTracer() *tracer { return &tracer{base: now()} }

// begin opens a span under the innermost open one. With the tracer off it
// returns -1 and end(-1) is a no-op, so wrappers stay installed while a load
// runs without flooding the trace.
func (t *tracer) begin(name, layer string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Layer: layer, Start: int64(since(t.base))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int, n int64) {
	if id < 0 {
		return
	}
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic(fmt.Sprintf("trace: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(since(t.base))
	t.spans[id].N = n
}

// selfTimes returns every span's self time: its duration minus the interval
// its children cover. It checks that children nest inside their parent and
// that within each tree the self times sum to the root's duration.
func (t *tracer) selfTimes() ([]int64, error) {
	self := make([]int64, len(t.spans))
	root := make([]int, len(t.spans))
	for i, s := range t.spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("trace: span %d (%s) never closed", i, s.Name)
		}
		self[i] += s.End - s.Start
		root[i] = i
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
				return nil, fmt.Errorf("trace: span %d (%s) does not nest in %d (%s)", i, s.Name, s.Parent, p.Name)
			}
			self[s.Parent] -= s.End - s.Start
			root[i] = root[s.Parent]
		}
	}
	sums := map[int]int64{}
	for i := range t.spans {
		if self[i] < 0 {
			return nil, fmt.Errorf("trace: span %d (%s) has overlapping children", i, t.spans[i].Name)
		}
		sums[root[i]] += self[i]
	}
	for r, sum := range sums {
		if d := t.spans[r].End - t.spans[r].Start; sum != d {
			return nil, fmt.Errorf("trace: tree %d (%s) self times sum to %d ns, root is %d ns", r, t.spans[r].Name, sum, d)
		}
	}
	return self, nil
}

// named and inLayer select spans for sum.
func named(name string) func(span) bool { return func(s span) bool { return s.Name == name } }
func inLayer(l string) func(span) bool  { return func(s span) bool { return s.Layer == l } }

// sum adds up, in milliseconds, the durations (or, with selfTime, the self
// times) of the matching spans in [lo, hi), and counts them.
func (t *tracer) sum(self []int64, lo, hi int, match func(span) bool, selfTime bool) (float64, int) {
	var ns int64
	n := 0
	for i := lo; i < hi; i++ {
		if !match(t.spans[i]) {
			continue
		}
		n++
		if selfTime {
			ns += self[i]
		} else {
			ns += t.spans[i].End - t.spans[i].Start
		}
	}
	return float64(ns) / 1e6, n
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), blob, 0o644)
}
