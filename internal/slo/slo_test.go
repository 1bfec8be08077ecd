package slo

import (
	"strings"
	"testing"
	"time"
)

const ms = time.Millisecond

// TestHistogramExact checks small values are exact and quantiles clamp
// to observed extremes.
func TestHistogramExact(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 32; v++ {
		h.Observe(v)
	}
	if h.Count() != 32 || h.Max() != 31 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	if got := h.Quantile(0.5); got != 15 {
		t.Fatalf("p50 = %d, want 15", got)
	}
	if got := h.Quantile(1); got != 31 {
		t.Fatalf("p100 = %d, want 31", got)
	}
}

// TestHistogramEmpty: every quantile of an empty histogram is 0.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0.5, 0.99, 0.999, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty quantile(%v) = %d", q, got)
		}
	}
	if h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
}

// TestHistogramSingleSample: p999 of one sample is that sample, exact.
func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(123457)
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if got := h.Quantile(q); got != 123457 {
			t.Fatalf("single-sample quantile(%v) = %d, want 123457", q, got)
		}
	}
}

// TestHistogramRelativeError: bucketed quantiles stay within the
// log-linear layout's ~3% relative error.
func TestHistogramRelativeError(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 100_000; v += 97 {
		h.Observe(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := float64(h.Quantile(q))
		want := q * 100_000
		if got < want*0.95 || got > want*1.05 {
			t.Fatalf("quantile(%v) = %v, want within 5%% of %v", q, got, want)
		}
	}
}

// fakeClock is a manual scheduler clock for engine tests.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

// TestEngineAttainment checks per-class accounting against a declared
// objective.
func TestEngineAttainment(t *testing.T) {
	clk := &fakeClock{}
	e := NewEngine(clk.Now, Options{})
	if err := e.Declare(SLO{Class: "read", Target: 10 * ms, Percentile: 99}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 99; i++ {
		clk.now += ms
		e.Record("read", 5*ms, false)
	}
	clk.now += ms
	if !e.Record("read", 50*ms, false) {
		t.Fatal("over-target request not reported as a miss")
	}
	e.Record("write", 2*ms, false) // undeclared class: tracked, no objective

	rep := e.Report()
	if len(rep.Classes) != 2 || rep.Classes[0].Class != "read" || rep.Classes[1].Class != "write" {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	r := rep.Classes[0]
	if r.Count != 100 || r.Missed != 1 || r.Attainment != 0.99 || !r.Met {
		t.Fatalf("read report = %+v", r)
	}
	if r.P50Us < 5000 || r.P50Us > 5200 || r.MaxUs != 50000 {
		t.Fatalf("read quantiles = %+v", r)
	}
	w := rep.Classes[1]
	if w.Declared || w.Met || w.Count != 1 {
		t.Fatalf("write report = %+v", w)
	}
}

// TestEngineFailuresMiss: failed requests miss regardless of latency.
func TestEngineFailuresMiss(t *testing.T) {
	clk := &fakeClock{}
	e := NewEngine(clk.Now, Options{})
	e.Declare(SLO{Class: "read", Target: 10 * ms, Percentile: 99})
	if !e.Record("read", 1*ms, true) {
		t.Fatal("failed request not a miss")
	}
	rep := e.Report()
	if rep.Classes[0].Errors != 1 || rep.Classes[0].Missed != 1 {
		t.Fatalf("report = %+v", rep.Classes[0])
	}
}

// TestEngineBurnBreach checks the rolling window fires OnBreach when
// the budget burns too fast, at most once per window, and that the
// window slides.
func TestEngineBurnBreach(t *testing.T) {
	clk := &fakeClock{}
	var fired []float64
	e := NewEngine(clk.Now, Options{
		OnBreach: func(class string, burn float64) {
			if class != "read" {
				t.Fatalf("breach class = %q", class)
			}
			fired = append(fired, burn)
		},
	})
	e.Declare(SLO{Class: "read", Target: 10 * ms, Percentile: 90}) // 10% budget
	// 50% misses: burn = 5, well over threshold.
	for i := 0; i < 40; i++ {
		clk.now += 10 * ms
		lat := 5 * ms
		if i%2 == 0 {
			lat = 50 * ms
		}
		e.Record("read", lat, false)
		if i+1 < minCount && len(fired) != 0 {
			t.Fatalf("breach fired after %d requests, before the %d-request gate", i+1, minCount)
		}
	}
	if len(fired) == 0 {
		t.Fatal("no breach fired under 5x burn")
	}
	if len(fired) > 1 {
		t.Fatalf("breach fired %d times within one window", len(fired))
	}
	// Let the window slide past the misses; burn drops to 0.
	clk.now += window + time.Second
	for i := 0; i < 40; i++ {
		clk.now += 10 * ms
		e.Record("read", 1*ms, false)
	}
	rep := e.Report()
	if rep.Classes[0].Burn != 0 {
		t.Fatalf("burn after recovery = %v", rep.Classes[0].Burn)
	}
}

// TestEngineDeclareValidation rejects bad declarations.
func TestEngineDeclareValidation(t *testing.T) {
	e := NewEngine(func() time.Duration { return 0 }, Options{})
	for _, s := range []SLO{
		{},
		{Class: "x"},
		{Class: "x", Target: ms, Percentile: 0},
		{Class: "x", Target: ms, Percentile: 100},
		{Class: "x", Target: -ms, Percentile: 99},
	} {
		if err := e.Declare(s); err == nil {
			t.Fatalf("Declare(%+v) accepted", s)
		}
	}
}

// TestReportFormat smoke-tests the shell rendering.
func TestReportFormat(t *testing.T) {
	clk := &fakeClock{}
	e := NewEngine(clk.Now, Options{})
	e.Declare(SLO{Class: "read", Target: 10 * ms, Percentile: 99.9})
	e.Record("read", 5*ms, false)
	out := e.Report().Format()
	for _, want := range []string{"CLASS", "read", "p99.9", "yes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	if empty := (Report{}).Format(); empty == "" {
		t.Fatal("empty report renders nothing")
	}
}
