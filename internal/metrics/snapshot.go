package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// CounterSnap is one counter's exported state.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge's exported state.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistSnap is one histogram's exported state.  Counts are per-bucket
// (not cumulative); the last entry is the +Inf overflow bucket.
type HistSnap struct {
	Name   string  `json:"name"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot is a consistent, name-sorted copy of a registry.  Because
// every instrument accumulates deterministically (see the package
// comment), marshaling a snapshot of an identically-seeded simulation
// yields byte-identical output.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// Snapshot captures the registry's exported series, sorted by name:
// those looked up by name and those whose handle was touched.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make([]CounterSnap, 0, len(r.counters)),
		Gauges:     make([]GaugeSnap, 0, len(r.gauges)),
		Histograms: make([]HistSnap, 0, len(r.histograms)),
	}
	for name, c := range r.counters {
		if v := c.Value(); v != 0 || c.live.Load() {
			s.Counters = append(s.Counters, CounterSnap{Name: name, Value: v})
		}
	}
	for name, g := range r.gauges {
		if g.live.Load() {
			s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value()})
		}
	}
	for name, h := range r.histograms {
		if h.count.Load() == 0 && !h.live.Load() {
			continue
		}
		counts := make([]int64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, HistSnap{
			Name:   name,
			Bounds: append([]int64(nil), h.bounds...),
			Counts: counts,
			Count:  h.count.Load(),
			Sum:    h.sum.Load(),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Histogram returns the named histogram snapshot, if present.
func (s Snapshot) Histogram(name string) (HistSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistSnap{}, false
}

// WriteJSON writes the snapshot as indented JSON.  Field order and
// name sorting are fixed, so output is byte-stable.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (counters as *_total-style counters, gauges as gauges,
// histograms with cumulative le buckets, _sum, and _count series).
// Label values are re-escaped from the registry's Go quoting to the
// exposition format's \\ \" \n escapes, sanitizing bytes the format
// cannot carry, so series named after arbitrary application keys still
// emit parseable lines.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, c := range s.Counters {
		base, labels := promName(c.Name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s%s %d\n", base, base, braced(labels), c.Value)
	}
	for _, g := range s.Gauges {
		base, labels := promName(g.Name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s%s %g\n", base, base, braced(labels), g.Value)
	}
	for _, h := range s.Histograms {
		base, labels := promName(h.Name)
		pre := strings.TrimPrefix(labels+",", ",") // the bucket's labels before le
		fmt.Fprintf(&b, "# TYPE %s histogram\n", base)
		cum := int64(0)
		for i, n := range h.Counts {
			cum += n
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%d", h.Bounds[i])
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d\n", base, pre, le, cum)
		}
		fmt.Fprintf(&b, "%s_sum%s %d\n%s_count%s %d\n", base, braced(labels), h.Sum, base, braced(labels), h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// braced re-wraps a label body for series that keep the original labels.
func braced(body string) string {
	if body == "" {
		return ""
	}
	return "{" + body + "}"
}

// Format renders one histogram snapshot as an ASCII table with bars —
// the JS-Shell's "hist" view.
func (h HistSnap) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  count=%d sum=%d", h.Name, h.Count, h.Sum)
	if h.Count > 0 {
		fmt.Fprintf(&b, " avg=%.1f", float64(h.Sum)/float64(h.Count))
	}
	b.WriteByte('\n')
	top := max(slices.Max(h.Counts), 1)
	for i, n := range h.Counts {
		le := "+Inf"
		if i < len(h.Bounds) {
			le = fmt.Sprintf("%d", h.Bounds[i])
		}
		bar := strings.Repeat("#", int(n*40/top))
		fmt.Fprintf(&b, "  le %10s  %8d  %s\n", le, n, bar)
	}
	return b.String()
}
