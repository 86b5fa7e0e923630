package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies an instrument for exposition.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
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
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Instrument is a named scalar metric. Histograms are registered
// separately and do not implement Instrument.
type Instrument interface {
	Name() string
	Help() string
	Kind() Kind
	// Cumulative reports whether the value is monotonically
	// accumulated, so that the recorder should emit per-window deltas
	// (counters and counter-like function gauges) rather than samples.
	Cumulative() bool
	// Load returns the current value. For function gauges this is the
	// value cached at the last Refresh.
	Load() int64
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Name implements Instrument.
func (c *Counter) Name() string { return c.name }

// Help implements Instrument.
func (c *Counter) Help() string { return c.help }

// Kind implements Instrument.
func (c *Counter) Kind() Kind { return KindCounter }

// Cumulative implements Instrument.
func (c *Counter) Cumulative() bool { return true }

// Add increments the counter by d. Nil-safe.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Load implements Instrument. Nil-safe.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic point-in-time value.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Name implements Instrument.
func (g *Gauge) Name() string { return g.name }

// Help implements Instrument.
func (g *Gauge) Help() string { return g.help }

// Kind implements Instrument.
func (g *Gauge) Kind() Kind { return KindGauge }

// Cumulative implements Instrument.
func (g *Gauge) Cumulative() bool { return false }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d. Nil-safe.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load implements Instrument. Nil-safe.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FuncGauge reads owner state through a callback. The callback runs
// only during Refresh, which the owner must serialize with its own
// mutations (the store refreshes under its lock at recorder ticks);
// concurrent readers see the cached value, so live exposition never
// races with the owner.
type FuncGauge struct {
	name, help string
	cumulative bool
	fn         func() int64
	cached     atomic.Int64
}

// Name implements Instrument.
func (f *FuncGauge) Name() string { return f.name }

// Help implements Instrument.
func (f *FuncGauge) Help() string { return f.help }

// Kind implements Instrument.
func (f *FuncGauge) Kind() Kind {
	if f.cumulative {
		return KindCounter
	}
	return KindGauge
}

// Cumulative implements Instrument.
func (f *FuncGauge) Cumulative() bool { return f.cumulative }

// Refresh re-reads the callback into the cache.
func (f *FuncGauge) Refresh() { f.cached.Store(f.fn()) }

// Load implements Instrument.
func (f *FuncGauge) Load() int64 { return f.cached.Load() }

// Histogram is a fixed-bucket histogram with atomic counts. Bucket i
// counts observations v <= Bounds[i]; one overflow bucket counts the
// rest.
type Histogram struct {
	name, help string
	bounds     []int64
	buckets    []atomic.Int64 // len(bounds)+1, last is overflow
	count      atomic.Int64
	sum        atomic.Int64
}

// Name returns the histogram name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value. Nil-safe and allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the count of observations <= Bounds[i], or the
// overflow count for i == len(Bounds).
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i].Load() }

// Bounds returns the upper bucket bounds.
func (h *Histogram) Bounds() []int64 { return h.bounds }

// Registry holds named instruments in registration order.
type Registry struct {
	mu      sync.Mutex
	scalars []Instrument
	hists   []*Histogram
	names   map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(name string) {
	if r.names[name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.names[name] = true
}

// NewCounter registers and returns an atomic counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	c := &Counter{name: name, help: help}
	r.scalars = append(r.scalars, c)
	return c
}

// NewGauge registers and returns an atomic gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	g := &Gauge{name: name, help: help}
	r.scalars = append(r.scalars, g)
	return g
}

// NewFuncGauge registers a function-backed gauge. cumulative marks
// counter-like values the recorder should delta per window. See the
// FuncGauge concurrency contract.
func (r *Registry) NewFuncGauge(name, help string, cumulative bool, fn func() int64) *FuncGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	f := &FuncGauge{name: name, help: help, cumulative: cumulative, fn: fn}
	f.Refresh()
	r.scalars = append(r.scalars, f)
	return f
}

// NewHistogram registers a fixed-bucket histogram with the given upper
// bucket bounds (ascending).
func (r *Registry) NewHistogram(name, help string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		name:    name,
		help:    help,
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists = append(r.hists, h)
	return h
}

// Refresh re-reads every function gauge. The caller must hold whatever
// lock protects the state the gauge callbacks read.
func (r *Registry) Refresh() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, in := range r.scalars {
		if f, ok := in.(*FuncGauge); ok {
			f.Refresh()
		}
	}
}

// Scalars returns the scalar instruments in registration order.
func (r *Registry) Scalars() []Instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Instrument(nil), r.scalars...)
}

// Histograms returns the registered histograms in registration order.
func (r *Registry) Histograms() []*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Histogram(nil), r.hists...)
}

// Names returns every registered metric name (scalars and histograms),
// sorted. Used by audits that pin the metric surface to a golden list.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.names))
	for n := range r.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteProm renders Prometheus text exposition format. Function gauges
// expose the value cached at their last Refresh (recorder tick).
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	scalars := append([]Instrument(nil), r.scalars...)
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()
	for _, in := range scalars {
		base := promBase(in.Name())
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			base, in.Help(), base, in.Kind(), in.Name(), in.Load()); err != nil {
			return err
		}
	}
	for _, h := range hists {
		base := promBase(h.name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", base, h.help, base); err != nil {
			return err
		}
		var cum int64
		for i, b := range h.bounds {
			cum += h.Bucket(i)
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.name, b, cum); err != nil {
				return err
			}
		}
		cum += h.Bucket(len(h.bounds))
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			h.name, cum, h.name, h.Sum(), h.name, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// promBase strips a {label="..."} suffix from a metric name: labelled
// instruments are registered as name{label="v"} strings, and the HELP
// and TYPE lines refer to the base family name.
func promBase(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// ShardName decorates a metric name with a {shard="id"} label so the
// shards of one engine can register on one set without colliding;
// shard < 0 keeps the plain name. Names that already carry labels get
// ,shard="id" appended inside the braces.
func ShardName(name string, shard int) string {
	if shard < 0 {
		return name
	}
	if last := len(name) - 1; last >= 0 && name[last] == '}' {
		return fmt.Sprintf("%s,shard=\"%d\"}", name[:last], shard)
	}
	return fmt.Sprintf("%s{shard=\"%d\"}", name, shard)
}

// LabelValue extracts the value of a {key="value"} label embedded in a
// metric name, or "" when absent.
func LabelValue(name, key string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	rest := name[i+1 : len(name)-1]
	for _, part := range strings.Split(rest, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) == 2 && kv[0] == key {
			return strings.Trim(kv[1], `"`)
		}
	}
	return ""
}
