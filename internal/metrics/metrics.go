// Package metrics is the JRS measurement substrate: a registry of
// counters, gauges, and fixed-bucket histograms that every layer of the
// runtime (rmi, core, nas, simnet) reports into.
//
// All timing measurements are taken against the *scheduler* clock
// (sched.Sched.Now()), never the wall clock, so on a simulated
// installation every recorded value — and therefore every exported
// snapshot — is a deterministic function of the simulation seed.  Two
// identically-seeded runs produce byte-identical snapshots; that is what
// makes the Figure 5 latency distributions reproducible artifacts rather
// than noisy measurements.
//
// To keep determinism independent of goroutine interleaving, histograms
// and counters accumulate in integers only (nanosecond durations are
// observed as microseconds, sizes as bytes): integer addition is
// order-independent, so concurrent observers cannot perturb a snapshot.
//
// Naming convention: js_<subsystem>_<name>[_<unit>], with instance labels
// inline in Prometheus form, e.g.
//
//	js_rmi_call_latency_us{node="rachel"}
//	js_shard_admission_sheds_total{group="kv",class="bronze"}
//
// Units: _us = scheduler-time microseconds, _bytes = bytes, _total = a
// monotone count.
//
// Code emits through handles: each owner resolves a family's instrument
// once, where its label values become known (CounterHandle, GaugeHandle,
// HistogramHandle, with Label building the name), and a touch is atomic
// operations on the handle.  A resolved series enters snapshots at its
// first touch, Add(0) and Set(0) included.  Lookups by name (Counter,
// Gauge, Histogram) export at once: readers and bench/ use them.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Label renders a metric name with inline labels: Label("m", "a", "1",
// "b", "2") == `m{a="1",b="2"}`.  Pairs must come in key, value order;
// callers must use a consistent key order for the same metric.  Values
// may contain arbitrary bytes (key names from application key spaces
// end up here): they are Go-quoted, so the rendered name is a single
// unambiguous line and ParseLabels recovers the original value exactly.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	size := len(name) + 2
	for _, s := range kv {
		size += len(s) + 2 // '=' and ',' with a key, two quotes with a value
	}
	var b strings.Builder
	b.Grow(size) // one allocation unless a value needs escapes
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		var q [64]byte
		b.Write(strconv.AppendQuote(q[:0], kv[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// splitName separates an inline-labeled name into base and label body:
// `m{a="1"}` → ("m", `a="1"`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// ParseLabels is the inverse of Label: it splits an inline-labeled name
// into its base and the original key/value pairs, unquoting each value.
// Quoted values may contain commas, braces, and escape sequences; the
// scan respects the quoting, so hostile values round-trip byte-exact.
func ParseLabels(name string) (base string, kv []string, err error) {
	base, body := splitName(name)
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return base, kv, fmt.Errorf("metrics: malformed label body %q", body)
		}
		key := body[:eq]
		rest := body[eq+1:] // starts at the opening quote
		val, tail, e := unquotePrefix(rest)
		if e != nil {
			return base, kv, fmt.Errorf("metrics: bad label value in %q: %w", name, e)
		}
		kv = append(kv, key, val)
		body = strings.TrimPrefix(tail, ",")
		if body == tail && tail != "" {
			return base, kv, fmt.Errorf("metrics: trailing junk %q in %q", tail, name)
		}
	}
	return base, kv, nil
}

// unquotePrefix unquotes the Go-quoted string s starts with and returns
// the remainder after the closing quote.
func unquotePrefix(s string) (val, rest string, err error) {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip the escaped byte
		case '"':
			val, err = strconv.Unquote(s[:i+1])
			return val, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated quote in %q", s)
}

// promLabelValue renders one label value for the Prometheus text
// exposition format, which only knows the \\, \", and \n escapes:
// other control bytes and invalid UTF-8 sequences (legal in our label
// values — application keys are arbitrary bytes) are sanitized to the
// Unicode replacement character so the emitted line always parses.
func promLabelValue(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); {
		r, size := utf8.DecodeRuneInString(v[i:])
		switch {
		case r == utf8.RuneError && size == 1: // invalid UTF-8 byte
			b.WriteRune(utf8.RuneError)
		case r == '\\':
			b.WriteString(`\\`)
		case r == '"':
			b.WriteString(`\"`)
		case r == '\n':
			b.WriteString(`\n`)
		case r < 0x20 || r == 0x7f: // other control bytes: sanitize
			b.WriteRune(utf8.RuneError)
		default:
			b.WriteRune(r)
		}
		i += size
	}
	return b.String()
}

// promName splits a registry name into its base and its (Go-quoted)
// label body re-rendered in Prometheus escaping.  A body that fails to
// parse is passed through unchanged — better a raw line than a dropped
// series.
func promName(name string) (base, body string) {
	base, kv, err := ParseLabels(name)
	if err != nil {
		return splitName(name)
	}
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(promLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return base, b.String()
}

// Counter is a monotonically increasing integer.
type Counter struct {
	v    atomic.Int64
	live atomic.Bool // exported although it may be 0
}

// Add increments the counter by n (n < 0 is ignored).  Add(0) still
// exports the series.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	} else {
		c.live.Store(true)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// export puts the series in snapshots although it may record nothing.
func (c *Counter) export() *Counter { c.live.Store(true); return c }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float value (utilizations, staleness).
// The value lives in an atomic word (IEEE 754 bits), so setters on the
// hot path never contend on a lock.
type Gauge struct {
	bits atomic.Uint64
	live atomic.Bool // set at least once, or looked up by name
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)); g.live.Store(true) }

func (g *Gauge) export() *Gauge { g.live.Store(true); return g }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution of int64 observations.
// Bucket bounds are inclusive upper bounds; observations above the last
// bound land in the implicit +Inf bucket.  Count and sum are integers,
// so the final state is independent of observation order.
//
// Every cell is an independent atomic: Observe is a bounds search plus
// three atomic adds, lock-free — RMI call latency and per-link byte
// histograms sit on the hot path of every remote invocation, and a
// mutex here serializes otherwise-independent stations.  Readers see
// each cell atomically; exact cross-cell consistency holds whenever
// observers are quiescent, which is when snapshots are taken.
type Histogram struct {
	bounds []int64        // sorted upper bounds; immutable after registration
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Int64
	live   atomic.Bool // exported although it may be empty
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a scheduler-time duration in microseconds —
// the unit of every *_us histogram.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

func (h *Histogram) export() *Histogram { h.live.Store(true); return h }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// LatencyBuckets are the default bounds for *_us histograms: 50µs up to
// 10s of scheduler time, roughly ×2.5 per step — wide enough to span a
// local fast-path call and a WAN round trip on the simulated fabric.
var LatencyBuckets = []int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000,
}

// Registry holds one installation's metrics, keyed by full (labeled)
// name.  All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// resolve returns m[name], registering mk() under name if it is unset.
func resolve[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m[name] == nil {
		m[name] = mk()
	}
	return m[name]
}

// CounterHandle returns the named counter, registering it if needed.
// Its series enters snapshots at its first touch.
func (r *Registry) CounterHandle(name string) *Counter {
	return resolve(r, r.counters, name, func() *Counter { return new(Counter) })
}

// Counter looks the named counter up and exports its series at once.
func (r *Registry) Counter(name string) *Counter { return r.CounterHandle(name).export() }

// GaugeHandle is CounterHandle for gauges.
func (r *Registry) GaugeHandle(name string) *Gauge {
	return resolve(r, r.gauges, name, func() *Gauge { return new(Gauge) })
}

// Gauge is Counter for gauges.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeHandle(name).export() }

// DropGauge retires the named gauge: it leaves the registry and every
// later snapshot.  A publisher of per-key series calls it for keys that
// fell out of what it exports, so label cardinality stays bounded.
func (r *Registry) DropGauge(name string) {
	r.mu.Lock()
	delete(r.gauges, name)
	r.mu.Unlock()
}

// HistogramHandle is CounterHandle for histograms.  The bounds apply
// only on first registration; nil bounds default to LatencyBuckets.
func (r *Registry) HistogramHandle(name string, bounds []int64) *Histogram {
	return resolve(r, r.histograms, name, func() *Histogram {
		bs := append([]int64(nil), bounds...)
		if bounds == nil {
			bs = append(bs, LatencyBuckets...)
		}
		slices.Sort(bs)
		return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
	})
}

// Histogram is Counter for histograms; bounds as for HistogramHandle.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	return r.HistogramHandle(name, bounds).export()
}
