package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary, recorded from the
// benchmark's own files around the calls into the engine. Times are
// nanoseconds since the run began; Parent is the ID of the span that caused
// this one (0 for the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	clk   clock
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(t.clk.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(t.clk.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose ends were measured by the caller.
func (t *tracer) add(name string, parent int, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[string]float64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// traceFile is what a traced run leaves behind for one workload.
type traceFile struct {
	Workload   string             `json:"workload"`
	RunID      string             `json:"run_id"`
	Seed       int64              `json:"seed"`
	Bottleneck string             `json:"bottleneck"`
	SelfTime   map[string]float64 `json:"self_time_s"`
	Counters   map[string]float64 `json:"counters"`
	Spans      []span             `json:"spans"`
}

// write closes any span still open at the run's end and writes the file.
func (t *tracer) write(dir string, f traceFile) (string, error) {
	now := int64(t.clk.Now())
	t.mu.Lock()
	for i := range t.spans {
		if t.spans[i].End < 0 {
			t.spans[i].End = now
		}
	}
	f.Spans = t.spans
	t.mu.Unlock()
	f.SelfTime = selfTimes(f.Spans)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+f.Workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
