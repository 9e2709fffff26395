package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created. Kind says how the interval
// was obtained:
//
//	measured   the benchmark read the clock before and after the call
//	reported   the layer reported the duration (jobq stages, mpi blocked
//	           time, metrics.Collector rows); the benchmark placed it
//	           inside its parent, back to back with its siblings
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Req    string `json:"req"` // spans of one op or request share it
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	kindMeasured = "measured"
	kindReported = "reported"
)

// tracer keeps spans in memory; a nil *tracer records nothing, so the
// untraced pass runs the same code and pays one nil check per boundary.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a measured span and returns its id (0 when disabled).
func (t *tracer) begin(parent int, name, req string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Kind: kindMeasured, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// interval returns the recorded bounds of a closed span.
func (t *tracer) interval(id int) (start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return s.Start, s.End
}

// reported lays durations the layer itself reported back to back inside
// the parent span, starting offset nanoseconds after the parent's start.
// Durations are clipped to the parent's end, so a child never leaves it.
func (t *tracer) reported(parent int, req string, offset int64, names []string, nanos []int64) {
	if t == nil || parent == 0 {
		return
	}
	pStart, pEnd := t.interval(parent)
	t.mu.Lock()
	defer t.mu.Unlock()
	at := pStart + offset
	for i, name := range names {
		end := at + nanos[i]
		if end > pEnd {
			end = pEnd
		}
		if at > end {
			at = end
		}
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Kind: kindReported, Start: at, End: end})
		at = end
	}
}

// traceFile is what a traced run writes to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Class    string `json:"class"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload, class string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	blob, err := json.Marshal(traceFile{Workload: workload, Class: class, Seed: seed, Spans: t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}

// selfTimes checks the span tree — every span closed, every parent
// present, every child inside its parent — and returns each span's self
// time: its duration minus the part of it its children cover.
func selfTimes(spans []span) (map[int]int64, error) {
	byID := make(map[int]span, len(spans))
	children := map[int][]span{}
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return nil, fmt.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, until := int64(0), s.Start
		for _, k := range kids { // union of the children's intervals
			from := k.Start
			if from < until {
				from = until
			}
			if k.End > from {
				covered += k.End - from
				until = k.End
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self, nil
}
