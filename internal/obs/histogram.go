package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket Prometheus-style histogram: lock-free
// observation (atomic per-bucket counters plus a CAS-looped float sum),
// canonical text rendering (_bucket in ascending le order with a +Inf
// bucket, then _sum, then _count — cumulative counts, as the exposition
// format requires).
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative per bucket
	sum    atomic.Uint64   // math.Float64bits of the running sum
	count  atomic.Uint64
}

// DefBuckets covers request/solve latencies from 100µs to 30s, in
// seconds — the unit every *_seconds metric observes in.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// NewHistogram creates a histogram over the given ascending upper
// bounds. A nil bounds slice selects DefBuckets. Panics on unsorted or
// empty bounds — a histogram's shape is a programming decision, not
// runtime input.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending at %d: %g <= %g",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are inclusive upper bounds (le): the value lands in the
	// first bucket whose bound is >= v, or the +Inf overflow bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Snapshot returns the cumulative bucket counts (one per bound, then
// +Inf), the value sum, and the observation count. Under concurrent
// observation the three are not guaranteed to be from one instant, but
// the cumulative counts are always non-decreasing.
func (h *Histogram) Snapshot() (cumulative []uint64, sum float64, count uint64) {
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return cumulative, math.Float64frombits(h.sum.Load()), h.count.Load()
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest float form.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// renderInto writes the histogram's series in canonical order. labels is
// the rendered label set without braces ("" or `route="/v1/solve"`); an
// unlabeled histogram's _sum and _count carry no braces. Every series of
// one family must come from the same Render call so HELP/TYPE appear once.
func (h *Histogram) renderInto(b *strings.Builder, name, labels string) {
	cum, sum, count := h.Snapshot()
	sep, set := "", ""
	if labels != "" {
		sep, set = ",", "{"+labels+"}"
	}
	for i, bound := range h.bounds {
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatBound(bound), cum[i])
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum[len(cum)-1])
	fmt.Fprintf(b, "%s_sum%s %s\n", name, set, strconv.FormatFloat(sum, 'g', -1, 64))
	fmt.Fprintf(b, "%s_count%s %d\n", name, set, count)
}

// Render emits one unlabeled histogram family: HELP, TYPE, buckets,
// sum, count.
func (h *Histogram) Render(b *strings.Builder, name, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	h.renderInto(b, name, "")
}

// HistogramVec is a family of histograms keyed by one or more label
// values (e.g. route and outcome). Children are created on first use and
// never expire; the label-value space must therefore be bounded by
// construction (routes and status classes are, tenant names are not —
// keep those out of histogram labels).
type HistogramVec struct {
	name   string
	help   string
	labels []string
	bounds []float64

	mu       sync.Mutex
	children map[string]*Histogram // key = joined label values
}

// NewHistogramVec creates a labeled histogram family. nil bounds selects
// DefBuckets.
func NewHistogramVec(name, help string, labelNames []string, bounds []float64) *HistogramVec {
	if len(labelNames) == 0 {
		panic("obs: HistogramVec needs at least one label; use Histogram")
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{
		name:     name,
		help:     help,
		labels:   append([]string(nil), labelNames...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*Histogram),
	}
}

// With returns (creating on first use) the child histogram for the given
// label values, which must match the label names in count.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.children[key]
	if h == nil {
		h = NewHistogram(v.bounds)
		v.children[key] = h
	}
	return h
}

// Render emits the whole family: HELP and TYPE once, then every child's
// series with children ordered by their label values, each child's
// buckets in canonical order.
func (v *HistogramVec) Render(b *strings.Builder) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	children := make(map[string]*Histogram, len(keys))
	for _, k := range keys {
		children[k] = v.children[k]
	}
	v.mu.Unlock()
	sort.Strings(keys)

	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", v.name, v.help, v.name)
	for _, k := range keys {
		values := strings.Split(k, "\x00")
		var lb strings.Builder
		for i, name := range v.labels {
			if i > 0 {
				lb.WriteByte(',')
			}
			fmt.Fprintf(&lb, "%s=%q", name, values[i])
		}
		children[k].renderInto(b, v.name, lb.String())
	}
}
