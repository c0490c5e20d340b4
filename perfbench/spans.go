package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"procmine/internal/obs"
)

// Span is one benchmark-owned measurement around a call into a layer. The
// program under test is not instrumented further: spans wrap its public
// entry points from outside, and the program's own stage records
// (Diagnostics.Stages) are attached below the span that produced them.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`   // "<layer>.<operation>"
	RunID  string `json:"run_id"`
	// StartNs and EndNs are offsets from the tracer's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Allocs and Bytes are process-wide allocation deltas, recorded only
	// for spans opened with withAllocs (ReadMemStats stops the world).
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
	// Synthetic marks program stages whose start was laid out from their
	// recorded durations: Diagnostics.Stages carry no timestamps.
	Synthetic bool `json:"synthetic,omitempty"`
}

// layer is the span name's module prefix.
func (s Span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s Span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share code paths without paying for spans.
type tracer struct {
	runID string
	t0    time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer(runID string) *tracer { return &tracer{runID: runID, t0: time.Now()} }

// openSpan is a span in flight.
type openSpan struct {
	tr        *tracer
	s         Span
	allocs    bool
	mallocsAt uint64
	bytesAt   uint64
}

func memCounts() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// start opens a span under parent (nil for a root); withAllocs also
// records allocation deltas.
func (t *tracer) start(name string, parent *openSpan, withAllocs bool) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{}) // reserve the ID
	t.mu.Unlock()
	o := &openSpan{tr: t, allocs: withAllocs}
	o.s = Span{ID: id, Name: name, RunID: t.runID}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	if withAllocs {
		o.mallocsAt, o.bytesAt = memCounts()
	}
	o.s.StartNs = int64(time.Since(t.t0))
	return o
}

// end closes the span and returns it.
func (o *openSpan) end() Span {
	if o == nil {
		return Span{}
	}
	o.s.EndNs = int64(time.Since(o.tr.t0))
	if o.allocs {
		m, b := memCounts()
		o.s.Allocs, o.s.Bytes = m-o.mallocsAt, b-o.bytesAt
	}
	o.tr.mu.Lock()
	o.tr.spans[o.s.ID-1] = o.s
	o.tr.mu.Unlock()
	return o.s
}

// attachStages records the program's own stage records as children of
// parent, laid out back to back from the parent's start in completion
// order. A stage named "x/y" ran inside stage "x" (the scan workers) and
// is placed at the start of its enclosing stage. prefix maps a stage name
// to its span name.
func (t *tracer) attachStages(parent Span, stages []obs.Stage, prefix func(stage string) string) {
	if t == nil {
		return
	}
	var inner, outer []obs.Stage
	for _, st := range stages {
		if strings.Contains(st.Name, "/") {
			inner = append(inner, st)
		} else {
			outer = append(outer, st)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	placed := map[string]Span{}
	cursor := parent.StartNs
	for _, st := range outer {
		s := Span{
			ID: len(t.spans) + 1, Parent: parent.ID, Name: prefix(st.Name), RunID: t.runID,
			StartNs: cursor, EndNs: cursor + int64(st.Seconds*1e9),
			Allocs: st.Allocs, Bytes: st.Bytes, Synthetic: true,
		}
		cursor = s.EndNs
		t.spans = append(t.spans, s)
		placed[st.Name] = s
	}
	for _, st := range inner {
		encl, ok := placed[st.Name[:strings.IndexByte(st.Name, '/')]]
		if !ok {
			continue
		}
		end := encl.StartNs + int64(st.Seconds*1e9)
		if end > encl.EndNs {
			end = encl.EndNs
		}
		t.spans = append(t.spans, Span{
			ID: len(t.spans) + 1, Parent: encl.ID, Name: prefix(st.Name), RunID: t.runID,
			StartNs: encl.StartNs, EndNs: end, Allocs: st.Allocs, Bytes: st.Bytes, Synthetic: true,
		})
	}
}

// all returns the recorded spans.
func (t *tracer) all() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfSeconds sums, per layer, each span's duration minus the part of its
// interval that its children cover.
func selfSeconds(spans []Span) map[string]float64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.EndNs <= s.StartNs {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered, reach int64
		reach = s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.layer()] += float64(s.EndNs-s.StartNs-covered) / 1e9
	}
	return out
}

// traceFile is the traced run's output document.
type traceFile struct {
	RunID    string             `json:"run_id"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfS    map[string]float64 `json:"self_seconds_by_layer"`
	Spans    []Span             `json:"spans"`
}

// writeTrace writes the spans and per-layer self times as JSON.
func writeTrace(path string, t *tracer, workload string, seed int64) (map[string]float64, error) {
	spans := t.all()
	doc := traceFile{RunID: t.runID, Workload: workload, Seed: seed, SelfS: selfSeconds(spans), Spans: spans}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("writing trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("closing trace %s: %w", path, err)
	}
	return doc.SelfS, nil
}
