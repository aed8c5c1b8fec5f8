package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRecord is one finished span. Spans of one operation share a trace
// ID; a root span has parent 0. Times are nanoseconds since the tracer's
// origin.
type spanRecord struct {
	Trace  uint64 `json:"trace_id"`
	ID     uint64 `json:"span_id"`
	Parent uint64 `json:"parent_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerStat aggregates every span of one name: how many, their total
// duration, and their self time (duration minus the part of the span
// its children cover).
type layerStat struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// tracer keeps spans in memory and aggregates them per name as each
// trace finishes. Whole traces are kept for the JSON dump until the span
// budget runs out; the aggregates cover every trace, so a long run's
// metrics do not depend on the budget.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64

	mu     sync.Mutex
	budget int
	kept   []spanRecord
	layers map[string]*layerStat
	// Operation traces: their count, total root time and the root time
	// no layer span covers.
	ops         int64
	opNs        int64
	uncoveredNs int64
}

func newTracer(keepSpans int) *tracer {
	return &tracer{origin: time.Now(), budget: keepSpans, layers: make(map[string]*layerStat)}
}

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

// trace collects the spans of one operation until finish. Its methods
// are safe for concurrent use, so parallel workers inside one operation
// record into the same trace.
type trace struct {
	t  *tracer
	id uint64
	// op marks a trace whose root is a timed operation: only those count
	// toward the unattributed share (probe traces replay layers outside
	// any operation).
	op    bool
	mu    sync.Mutex
	spans []spanRecord
}

// openSpan is a started span; end records it.
type openSpan struct {
	id, parent uint64
	name       string
	start      int64
}

func (t *tracer) newTrace(op bool) *trace {
	return &trace{t: t, id: t.ids.Add(1), op: op}
}

// start opens a span under parent (0 for the root).
func (tr *trace) start(parent uint64, name string) openSpan {
	return openSpan{id: tr.t.ids.Add(1), parent: parent, name: name, start: tr.t.at(time.Now())}
}

// end records a started span as finished now.
func (tr *trace) end(sp openSpan) {
	tr.record(sp.id, sp.parent, sp.name, sp.start, tr.t.at(time.Now()))
}

// add records a span with explicit instants and returns its ID.
func (tr *trace) add(parent uint64, name string, start, end time.Time) uint64 {
	id := tr.t.ids.Add(1)
	tr.record(id, parent, name, tr.t.at(start), tr.t.at(end))
	return id
}

func (tr *trace) record(id, parent uint64, name string, start, end int64) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, spanRecord{Trace: tr.id, ID: id, Parent: parent, Name: name, Start: start, End: end})
	tr.mu.Unlock()
}

// covered returns how much of [lo, hi) the given spans cover together.
func covered(spans []spanRecord, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// finish computes every span's self time and, for an operation trace,
// the root time no layer span covers, and folds them into the tracer.
// The trace must not be used afterwards.
func (tr *trace) finish() {
	tr.mu.Lock()
	spans := tr.spans
	tr.spans = nil
	tr.mu.Unlock()

	children := make(map[uint64][]spanRecord)
	var layerSpans []spanRecord
	var root *spanRecord
	for i := range spans {
		s := spans[i]
		if s.Parent == 0 {
			root = &spans[i]
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
		layerSpans = append(layerSpans, s)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}

	t := tr.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range spans {
		ls := t.layers[s.Name]
		if ls == nil {
			ls = &layerStat{}
			t.layers[s.Name] = ls
		}
		ls.Count++
		ls.TotalNs += s.End - s.Start
		ls.SelfNs += self[i]
	}
	if tr.op && root != nil {
		dur := root.End - root.Start
		t.ops++
		t.opNs += dur
		t.uncoveredNs += dur - covered(layerSpans, root.Start, root.End)
	}
	if len(spans) <= t.budget {
		t.budget -= len(spans)
		t.kept = append(t.kept, spans...)
	}
}

// stat returns the aggregate of one span name (zero when none ran).
func (t *tracer) stat(name string) layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ls := t.layers[name]; ls != nil {
		return *ls
	}
	return layerStat{}
}

// meanUs is the mean duration of the named spans in µs.
func (t *tracer) meanUs(name string) float64 {
	s := t.stat(name)
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalNs) / float64(s.Count) / 1e3
}

// selfMsPerOp is the named spans' self time per operation trace in ms.
func (t *tracer) selfMsPerOp(name string) float64 {
	s := t.stat(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ops == 0 {
		return 0
	}
	return float64(s.SelfNs) / float64(t.ops) / 1e6
}

// unattributedShare is the share of operation root time that no layer
// span covers.
func (t *tracer) unattributedShare() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opNs == 0 {
		return 0
	}
	return float64(t.uncoveredNs) / float64(t.opNs)
}

// writeJSON dumps the kept spans and the per-name aggregates.
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	dump := struct {
		Origin            time.Time             `json:"origin"`
		Ops               int64                 `json:"ops"`
		UnattributedShare float64               `json:"unattributed_share"`
		Layers            map[string]*layerStat `json:"layers"`
		Spans             []spanRecord          `json:"spans"`
	}{t.origin, t.ops, 0, t.layers, t.kept}
	if t.opNs > 0 {
		dump.UnattributedShare = float64(t.uncoveredNs) / float64(t.opNs)
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
