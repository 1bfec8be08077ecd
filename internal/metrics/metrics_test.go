package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLabel(t *testing.T) {
	if got := Label("js_x"); got != "js_x" {
		t.Fatalf("Label no-kv = %q", got)
	}
	got := Label("js_x", "node", "rachel", "peer", "monika")
	want := `js_x{node="rachel",peer="monika"}`
	if got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
	base, labels := splitName(got)
	if base != "js_x" || labels != `node="rachel",peer="monika"` {
		t.Fatalf("splitName = %q, %q", base, labels)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatal("re-registration returned a new counter")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

// TestHistogramBuckets pins the bucket-boundary semantics: bounds are
// inclusive upper bounds, values above the last bound land in +Inf.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{0, 10, 11, 100, 500, 1000, 1001, 5000} {
		h.Observe(v)
	}
	snap, ok := r.Snapshot().Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// 0,10 → le10; 11,100 → le100; 500,1000 → le1000; 1001,5000 → +Inf.
	want := []int64{2, 2, 2, 2}
	for i, n := range want {
		if snap.Counts[i] != n {
			t.Fatalf("bucket counts = %v, want %v", snap.Counts, want)
		}
	}
	if snap.Count != 8 || snap.Sum != 0+10+11+100+500+1000+1001+5000 {
		t.Fatalf("count=%d sum=%d", snap.Count, snap.Sum)
	}
	h.ObserveDuration(250 * time.Microsecond)
	if h.Count() != 9 || h.Sum() != snap.Sum+250 {
		t.Fatal("ObserveDuration did not record microseconds")
	}
}

// TestSnapshotDeterminism: the same observations applied concurrently in
// any order, by name or through handles each worker resolves, produce
// byte-identical JSON snapshots — the property the Figure 5
// reproducibility guarantee rests on.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(workers int) []byte {
		r := NewRegistry()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c, g := r.CounterHandle("js_test_handle_total"), r.GaugeHandle("js_test_idle")
				for i := 0; i < 100; i++ {
					r.Counter("js_test_total").Inc()
					r.Histogram("js_test_us", nil).Observe(int64(i * 37))
					c.Add(int64(i % 2))
				}
				g.Set(0)
			}(w)
		}
		wg.Wait()
		r.Gauge(Label("js_test_util", "node", "a")).Set(0.5)
		var b bytes.Buffer
		if err := r.Snapshot().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := build(4), build(4)
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", a, b)
	}
}

// TestExportersGolden pins the exact exporter output for a small fixed
// registry.
func TestExportersGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("js_rmi_calls_total", "node", "a")).Add(3)
	r.Gauge("js_simnet_util").Set(0.25)
	h := r.Histogram(Label("js_rmi_call_latency_us", "node", "a"), []int64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)

	var pb bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	// Sections are ordered counters, gauges, histograms.
	wantProm := `# TYPE js_rmi_calls_total counter
js_rmi_calls_total{node="a"} 3
# TYPE js_simnet_util gauge
js_simnet_util 0.25
# TYPE js_rmi_call_latency_us histogram
js_rmi_call_latency_us_bucket{node="a",le="100"} 1
js_rmi_call_latency_us_bucket{node="a",le="1000"} 2
js_rmi_call_latency_us_bucket{node="a",le="+Inf"} 3
js_rmi_call_latency_us_sum{node="a"} 5550
js_rmi_call_latency_us_count{node="a"} 3
`
	if pb.String() != wantProm {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", pb.String(), wantProm)
	}

	var jb bytes.Buffer
	if err := r.Snapshot().WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{
  "counters": [
    {
      "name": "js_rmi_calls_total{node=\"a\"}",
      "value": 3
    }
  ],
  "gauges": [
    {
      "name": "js_simnet_util",
      "value": 0.25
    }
  ],
  "histograms": [
    {
      "name": "js_rmi_call_latency_us{node=\"a\"}",
      "bounds": [
        100,
        1000
      ],
      "counts": [
        1,
        1,
        1
      ],
      "count": 3,
      "sum": 5550
    }
  ]
}
`
	if jb.String() != wantJSON {
		t.Fatalf("json output:\n%s\nwant:\n%s", jb.String(), wantJSON)
	}
}

func TestHistFormat(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10})
	h.Observe(5)
	h.Observe(50)
	snap, _ := r.Snapshot().Histogram("h")
	out := snap.Format()
	for _, want := range []string{"count=2", "le", "+Inf", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}
