package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Attrs are kept as an
// ordered slice, not a map, so a trace marshals identically every time.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed region of a trace. Spans form a tree: StartChild
// creates a child, End closes the region. A Span is safe to end exactly
// once; its fields are written by the owning goroutine and read only
// after End (or under the trace lock by snapshotters).
type Span struct {
	tr       *Trace
	id       string
	parent   string
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children int // child counter, for deterministic child IDs
	mu       sync.Mutex
}

// Trace collects the spans of one traced operation (a request, a job, a
// CLI solve). Span IDs are derived deterministically from the trace ID
// and each span's path (parent ID, name, sibling index), so two runs of
// the same request produce identical IDs — diffable traces, stable test
// assertions.
//
// MaxSpans bounds memory: a huge instance can have hundreds of thousands
// of per-component spans, and a trace is retained for as long as its job.
// Spans beyond the cap are counted in Dropped() instead of stored.
type Trace struct {
	id  string
	max int

	mu      sync.Mutex
	spans   []*Span
	dropped int
	now     func() time.Time
}

// TraceOptions tunes NewTrace.
type TraceOptions struct {
	// MaxSpans caps retained spans; <= 0 selects 1024. The root span is
	// always retained.
	MaxSpans int
	// Now is the clock; nil selects time.Now. Tests inject a fake.
	Now func() time.Time
}

// NewTrace creates a trace whose root span carries the given name. The
// trace ID seeds every span ID, so use a deterministic ID (the job or
// request ID) for reproducible traces.
func NewTrace(id, rootName string, opt TraceOptions) (*Trace, *Span) {
	if opt.MaxSpans <= 0 {
		opt.MaxSpans = 1024
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	tr := &Trace{id: id, max: opt.MaxSpans, now: opt.Now}
	root := &Span{tr: tr, id: spanID(id, "", rootName, 0), name: rootName, start: opt.Now()}
	tr.spans = append(tr.spans, root)
	return tr, root
}

// Dropped returns how many spans were discarded over MaxSpans.
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// spanID derives a deterministic 64-bit span ID from the trace ID, the
// parent's ID, the span name, and the sibling index.
func spanID(traceID, parentID, name string, sibling int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%s#%d", traceID, parentID, name, sibling)
	return fmt.Sprintf("%016x", h.Sum64())
}

// StartChild opens a child span under s. It never returns nil — when the
// trace is at MaxSpans the child is recorded only as a drop count but
// still usable (End is a no-op on dropped spans). Safe for concurrent
// callers (component solves fan out across goroutines).
func (s *Span) StartChild(name string) *Span {
	tr := s.tr
	s.mu.Lock()
	sibling := s.children
	s.children++
	s.mu.Unlock()
	child := &Span{
		tr:     tr,
		id:     spanID(tr.id, s.id, name, sibling),
		parent: s.id,
		name:   name,
		start:  tr.now(),
	}
	tr.mu.Lock()
	if len(tr.spans) >= tr.max {
		tr.dropped++
	} else {
		tr.spans = append(tr.spans, child)
	}
	tr.mu.Unlock()
	return child
}

// SetAttr annotates the span. Call before or after End, from the owning
// goroutine.
func (s *Span) SetAttr(key string, value any) {
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: fmt.Sprint(value)})
	s.mu.Unlock()
}

// End closes the span. Ending an already-ended span keeps the first end
// time.
func (s *Span) End() {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = s.tr.now()
	}
	s.mu.Unlock()
}

// EndAt closes the span at an explicit instant — for regions whose
// boundaries were measured elsewhere (e.g. queue wait reconstructed from
// job timestamps).
func (s *Span) EndAt(t time.Time) {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = t
	}
	s.mu.Unlock()
}

// SetStart rewrites the span's start instant; same use as EndAt.
func (s *Span) SetStart(t time.Time) {
	s.mu.Lock()
	s.start = t
	s.mu.Unlock()
}

// SpanView is the JSON form of one span, children nested.
type SpanView struct {
	ID       string     `json:"id"`
	Name     string     `json:"name"`
	Start    time.Time  `json:"start"`
	DurNS    int64      `json:"dur_ns"`
	Open     bool       `json:"open,omitempty"` // span never ended
	Attrs    []Attr     `json:"attrs,omitempty"`
	Children []SpanView `json:"children,omitempty"`
}

// TraceView is the JSON form of a whole trace, served by
// GET /v1/jobs/{id}/trace.
type TraceView struct {
	TraceID string     `json:"trace_id"`
	Dropped int        `json:"dropped_spans,omitempty"`
	Root    *SpanView  `json:"root,omitempty"`
	Orphans []SpanView `json:"orphans,omitempty"` // parent dropped over MaxSpans
}

// snapshotLocked copies one span under its own lock.
func (s *Span) snapshot(now time.Time) (SpanView, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := SpanView{
		ID:    s.id,
		Name:  s.name,
		Start: s.start,
		Attrs: append([]Attr(nil), s.attrs...),
	}
	end := s.end
	if end.IsZero() {
		v.Open = true
		end = now
	}
	v.DurNS = end.Sub(s.start).Nanoseconds()
	return v, s.parent
}

// View snapshots the trace as a nested tree. Children appear in a
// deterministic order: by start time, then by ID. Spans still open are
// marked Open with their duration measured to "now".
func (t *Trace) View() TraceView {
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	dropped := t.dropped
	now := t.now()
	t.mu.Unlock()

	views := make([]SpanView, len(spans))
	parents := make([]string, len(spans))
	index := make(map[string]int, len(spans))
	for i, s := range spans {
		views[i], parents[i] = s.snapshot(now)
		index[views[i].ID] = i
	}
	childIdx := make(map[string][]int)
	for i := range views {
		if parents[i] == "" {
			continue
		}
		childIdx[parents[i]] = append(childIdx[parents[i]], i)
	}
	var build func(i int) SpanView
	build = func(i int) SpanView {
		v := views[i]
		kids := childIdx[v.ID]
		sort.Slice(kids, func(a, b int) bool {
			va, vb := views[kids[a]], views[kids[b]]
			if !va.Start.Equal(vb.Start) {
				return va.Start.Before(vb.Start)
			}
			return va.ID < vb.ID
		})
		for _, k := range kids {
			v.Children = append(v.Children, build(k))
		}
		return v
	}
	out := TraceView{TraceID: t.id, Dropped: dropped}
	for i := range views {
		if parents[i] == "" {
			root := build(i)
			out.Root = &root
			continue
		}
		if _, ok := index[parents[i]]; !ok {
			out.Orphans = append(out.Orphans, build(i))
		}
	}
	return out
}

// MarshalJSON serves the nested view.
func (t *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.View())
}
