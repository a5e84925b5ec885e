// Package telemetry is the live observability layer of the store: a
// dependency-free metrics subsystem (lock-free counters, gauges and
// fixed-bucket histograms, snapshot-on-read and mergeable), a sampled
// op-lifecycle tracer, and an HTTP endpoint serving the Prometheus text
// exposition format plus net/http/pprof.
//
// The paper's headline quantity — per-node storage cost as a function of the
// write concurrency ν — is a time-varying quantity; an end-of-run snapshot
// hides the dynamics (watermark spikes under concurrent writes, retirement
// lag, transport batching). The runtimes sample their storage meters into
// gauges here on a ticker, next to the Theorem 4.1/5.1 bound values for the
// run's shape, so a scrape sees measured-versus-bound slack live (DESIGN.md
// section 14).
//
// Everything hangs off a Registry: metric families are get-or-create by
// (name, labels), writes are single atomic operations on the hot path, and
// reads (Gather, WritePrometheus) take a point-in-time snapshot without
// stopping writers. The package deliberately depends only on the standard
// library, so any layer of the stack can feed it.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind int

const (
	// KindCounter is a monotonically increasing cumulative count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Label is one metric dimension, e.g. {Key: "shard", Value: "0"}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric is one labeled series inside a family. val holds the counter value
// directly, or a gauge's float64 bit pattern; histograms carry their own
// atomic bucket array.
type metric struct {
	labels []Label // sorted by key
	key    string  // rendered label key, for ordering
	val    atomic.Uint64
	hist   *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64 // histogram families only

	mu      sync.RWMutex
	metrics map[string]*metric
}

// Registry holds metric families and the default tracer. The zero value is
// not usable; construct with NewRegistry. All methods are safe for
// concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	tracerOnce sync.Once
	tracer     *Tracer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Tracer returns the registry's op-lifecycle tracer, creating the default
// one (1-in-64 sampling, 256-span ring) on first use. The HTTP endpoint
// serves its records at /trace.
func (r *Registry) Tracer() *Tracer {
	r.tracerOnce.Do(func() {
		if r.tracer == nil {
			r.tracer = NewTracer(64, 256)
		}
	})
	return r.tracer
}

// labelKey renders sorted labels into the family's series key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns a sorted copy, so callers' argument order never matters.
func sortLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// metricFor get-or-creates the series (name, labels) in a family of the
// given kind. Re-registering a name with a different kind is a programming
// error and panics — silently returning the wrong type would corrupt both
// series.
func (r *Registry) metricFor(name, help string, kind Kind, buckets []float64, labels []Label) *metric {
	r.mu.RLock()
	fam := r.families[name]
	r.mu.RUnlock()
	if fam == nil {
		r.mu.Lock()
		if fam = r.families[name]; fam == nil {
			fam = &family{name: name, help: help, kind: kind, buckets: buckets, metrics: make(map[string]*metric)}
			r.families[name] = fam
		}
		r.mu.Unlock()
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v, requested as %v", name, fam.kind, kind))
	}
	ls := sortLabels(labels)
	key := labelKey(ls)
	fam.mu.RLock()
	m := fam.metrics[key]
	fam.mu.RUnlock()
	if m != nil {
		return m
	}
	fam.mu.Lock()
	defer fam.mu.Unlock()
	if m = fam.metrics[key]; m == nil {
		m = &metric{labels: ls, key: key}
		if kind == KindHistogram {
			m.hist = newHistogram(fam.buckets)
		}
		fam.metrics[key] = m
	}
	return m
}

// Counter is a monotone cumulative count. The zero value is invalid; obtain
// one from Registry.Counter.
type Counter struct{ m *metric }

// Counter get-or-creates the counter series (name, labels).
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	return Counter{r.metricFor(name, help, KindCounter, nil, labels)}
}

// Inc adds one.
func (c Counter) Inc() { c.m.val.Add(1) }

// Add adds n.
func (c Counter) Add(n uint64) { c.m.val.Add(n) }

// Raise lifts the counter to v if v is larger — for mirroring an externally
// maintained monotone total (e.g. a transport endpoint's own counters) into
// the registry without double counting. Values below the current count are
// ignored, so the series never moves backward.
func (c Counter) Raise(v uint64) {
	for {
		cur := c.m.val.Load()
		if v <= cur || c.m.val.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current count.
func (c Counter) Value() uint64 { return c.m.val.Load() }

// Gauge is a value that moves both ways, stored as float64 bits in one
// atomic word. The zero value is invalid; obtain one from Registry.Gauge.
type Gauge struct{ m *metric }

// Gauge get-or-creates the gauge series (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	return Gauge{r.metricFor(name, help, KindGauge, nil, labels)}
}

// Set stores v.
func (g Gauge) Set(v float64) { g.m.val.Store(math.Float64bits(v)) }

// Add adds d (CAS loop; lock-free).
func (g Gauge) Add(d float64) {
	for {
		old := g.m.val.Load()
		if g.m.val.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g Gauge) Value() float64 { return math.Float64frombits(g.m.val.Load()) }

// Histogram get-or-creates the histogram series (name, labels) with the
// family's fixed bucket upper bounds (ascending; an implicit +Inf bucket is
// always appended). The first registration of a name fixes its buckets;
// later calls may pass nil.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.metricFor(name, help, KindHistogram, buckets, labels).hist
}

// Sample is one series in a Gather snapshot.
type Sample struct {
	// Name is the metric family name.
	Name string
	// Labels are the series labels, sorted by key.
	Labels []Label
	// Kind classifies the family.
	Kind Kind
	// Value carries a counter (as float) or gauge reading; zero for
	// histograms.
	Value float64
	// Hist carries a histogram snapshot; nil for counters and gauges.
	Hist *HistogramSnapshot
}

// Label returns the value of the named label, or "".
func (s Sample) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Gather snapshots every series, sorted by family name then label key — a
// stable order for goldens and diffing.
func (r *Registry) Gather() []Sample {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var out []Sample
	for _, fam := range fams {
		fam.mu.RLock()
		ms := make([]*metric, 0, len(fam.metrics))
		for _, m := range fam.metrics {
			ms = append(ms, m)
		}
		fam.mu.RUnlock()
		sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
		for _, m := range ms {
			s := Sample{Name: fam.name, Labels: m.labels, Kind: fam.kind}
			switch fam.kind {
			case KindCounter:
				s.Value = float64(m.val.Load())
			case KindGauge:
				s.Value = math.Float64frombits(m.val.Load())
			case KindHistogram:
				snap := m.hist.Snapshot()
				s.Hist = &snap
			}
			out = append(out, s)
		}
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one # HELP / # TYPE header per family, histograms
// expanded into _bucket{le=...}/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, fam := range fams {
		fam.mu.RLock()
		ms := make([]*metric, 0, len(fam.metrics))
		for _, m := range fam.metrics {
			ms = append(ms, m)
		}
		fam.mu.RUnlock()
		if len(ms) == 0 {
			continue
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
		if fam.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam.name, fam.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.kind)
		for _, m := range ms {
			switch fam.kind {
			case KindCounter:
				b.WriteString(fam.name)
				writeLabels(&b, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(m.val.Load(), 10))
				b.WriteByte('\n')
			case KindGauge:
				b.WriteString(fam.name)
				writeLabels(&b, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(math.Float64frombits(m.val.Load())))
				b.WriteByte('\n')
			case KindHistogram:
				snap := m.hist.Snapshot()
				cum := uint64(0)
				for i, ub := range snap.Bounds {
					cum += snap.Counts[i]
					b.WriteString(fam.name)
					b.WriteString("_bucket")
					writeLabels(&b, m.labels, "le", formatFloat(ub))
					b.WriteByte(' ')
					b.WriteString(strconv.FormatUint(cum, 10))
					b.WriteByte('\n')
				}
				cum += snap.Counts[len(snap.Bounds)]
				b.WriteString(fam.name)
				b.WriteString("_bucket")
				writeLabels(&b, m.labels, "le", "+Inf")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(cum, 10))
				b.WriteByte('\n')
				b.WriteString(fam.name)
				b.WriteString("_sum")
				writeLabels(&b, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(snap.Sum))
				b.WriteByte('\n')
				b.WriteString(fam.name)
				b.WriteString("_count")
				writeLabels(&b, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(cum, 10))
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeLabels renders {k1="v1",k2="v2"} with an optional extra label (le)
// appended; nothing at all when there are no labels.
func writeLabels(b *strings.Builder, labels []Label, extraKey, extraVal string) {
	if len(labels) == 0 && extraKey == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// escapeLabel applies the exposition format's label-value escaping.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\"", `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
