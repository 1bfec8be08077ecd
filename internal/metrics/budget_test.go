package metrics

import (
	"testing"
	"time"

	"jsymphony/internal/budget"
)

// TestMetricsAllocBudget pins the cost of emitting: every touch of a
// resolved handle is atomic operations on its fields and allocates
// nothing, and building a labelled name for a resolve line allocates
// the name alone, which keeps a world's boot, where every node resolves
// its handles, as cheap as it was when families registered on first
// touch.  The ceiling is this test's count, and a change that lowers a
// count lowers its ceiling.  It also pins the export rule: a resolved
// handle is not in a snapshot until its first touch.
func TestMetricsAllocBudget(t *testing.T) {
	if budget.RaceEnabled {
		t.Skip("the race runtime allocates on its own account, so allocation budgets do not hold under it")
	}
	r := NewRegistry()
	c := r.CounterHandle(Label("js_test_total", "node", "a"))
	g := r.GaugeHandle("js_test_level")
	h := r.HistogramHandle("js_test_us", nil)
	for _, row := range []struct {
		name    string
		ceiling float64
		op      func()
	}{
		{"Counter.Inc on a resolved handle", 0, func() { c.Inc() }},
		{"Counter.Add on a resolved handle", 0, func() { c.Add(3) }},
		{"Gauge.Set on a resolved handle", 0, func() { g.Set(0.5) }},
		{"Histogram.Observe on a resolved handle", 0, func() { h.Observe(700) }},
		{"Histogram.ObserveDuration on a resolved handle", 0, func() { h.ObserveDuration(700 * time.Microsecond) }},
		{"Label with two pairs", 1, func() { Label("js_test_total", "group", "kv", "class", "bronze") }},
	} {
		if got := testing.AllocsPerRun(1000, row.op); got > row.ceiling {
			t.Errorf("%s: %.1f allocations, ceiling %.1f", row.name, got, row.ceiling)
		} else {
			t.Logf("%s: %.1f allocations, ceiling %.1f", row.name, got, row.ceiling)
		}
	}

	// The export rule: resolving does not export; the first touch does,
	// Add(0) and Set(0) included.
	r = NewRegistry()
	c = r.CounterHandle("js_test_total")
	g = r.GaugeHandle("js_test_level")
	h = r.HistogramHandle("js_test_us", nil)
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("untouched handles exported: %+v", s)
	}
	c.Add(0)
	g.Set(0)
	h.Observe(0)
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0] != (CounterSnap{Name: "js_test_total", Value: 0}) {
		t.Errorf("after Add(0), counters = %+v, want js_test_total at 0", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0] != (GaugeSnap{Name: "js_test_level", Value: 0}) {
		t.Errorf("after Set(0), gauges = %+v, want js_test_level at 0", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 {
		t.Errorf("after Observe(0), histograms = %+v, want js_test_us with one observation", s.Histograms)
	}
	// A lookup by name exports at once, as it always has.
	r.Histogram("js_test_idle_us", nil)
	if _, ok := r.Snapshot().Histogram("js_test_idle_us"); !ok {
		t.Error("a histogram looked up by name is missing from the snapshot")
	}
}
