package metrics

import (
	"encoding/json"
	"fmt"
	"io"
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

// Snapshot captures the registry's current state, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make([]CounterSnap, 0, len(r.counters)),
		Gauges:     make([]GaugeSnap, 0, len(r.gauges)),
		Histograms: make([]HistSnap, 0, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
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
	for _, c := range s.Counters {
		base, labels := splitName(c.Name)
		if labels != "" {
			labels = promLabelBody(c.Name)
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s%s %d\n", base, base, braced(labels), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		base, labels := splitName(g.Name)
		if labels != "" {
			labels = promLabelBody(g.Name)
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s%s %g\n", base, base, braced(labels), g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		base, labels := splitName(h.Name)
		if labels != "" {
			labels = promLabelBody(h.Name)
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
			return err
		}
		cum := int64(0)
		for i, n := range h.Counts {
			cum += n
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%d", h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, joinLabels(labels, `le="`+le+`"`), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n",
			base, braced(labels), h.Sum, base, braced(labels), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// distribution from the bucket counts: the upper bound of the bucket
// the rank falls in (the last finite bound for overflow observations,
// or the mean when the histogram has no finite buckets).  An empty
// histogram reports 0.  Being a pure function of the snapshot, the
// estimate is deterministic.
func (h HistSnap) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	if float64(rank) < q*float64(h.Count) || rank == 0 {
		rank++ // ceil, at least the first observation
	}
	if rank > h.Count {
		rank = h.Count
	}
	cum := int64(0)
	for i, n := range h.Counts {
		cum += n
		if cum >= rank {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			break
		}
	}
	// Rank falls in the +Inf overflow bucket: the bounds cannot place
	// it, so report the best upper estimate available.
	if len(h.Bounds) > 0 {
		if mean := h.Sum / h.Count; mean > h.Bounds[len(h.Bounds)-1] {
			return mean
		}
		return h.Bounds[len(h.Bounds)-1]
	}
	return h.Sum / h.Count
}

// joinLabels appends extra to a label body.
func joinLabels(body, extra string) string {
	if body == "" {
		return extra
	}
	return body + "," + extra
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
	max := int64(1)
	for _, n := range h.Counts {
		if n > max {
			max = n
		}
	}
	for i, n := range h.Counts {
		le := "+Inf"
		if i < len(h.Bounds) {
			le = fmt.Sprintf("%d", h.Bounds[i])
		}
		bar := strings.Repeat("#", int(n*40/max))
		fmt.Fprintf(&b, "  le %10s  %8d  %s\n", le, n, bar)
	}
	return b.String()
}
