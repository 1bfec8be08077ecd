package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// manifest is the part of ../BENCHMARK.json the tests hold the program to.
type manifest struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// sameMetrics requires got to be exactly the declared names and units.
func sameMetrics(t *testing.T, got []metric, want []struct{ Name, Unit string }) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		if _, dup := units[m.name]; dup {
			t.Errorf("metric %s reported twice", m.name)
		}
		units[m.name] = m.unit
	}
	for _, w := range want {
		if unit, ok := units[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares %s, the run does not report it", w.Name)
		} else if unit != w.Unit {
			t.Errorf("%s reported in %q, declared in %q", w.Name, unit, w.Unit)
		}
	}
	if len(units) != len(want) {
		t.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(units), len(want))
	}
}

// small runs w for a fixed, small number of units with one set-up.
func small(t *testing.T, w *workload, seed int64, units int) (*run, *outcome) {
	t.Helper()
	r, out, err := execute(w, config{seed: seed, units: units, setups: 1})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	t.Cleanup(out.release)
	return r, out
}

// testUnits is each workload at about a hundredth of a ten-second window.
var testUnits = map[string]int{
	"sim_invoke": 3000, "sim_matmul": 2, "sim_serve": 30, "sim_durable": 12, "tcp_invoke": 2500,
}

// TestWorkloadsPassTheirChecks runs every workload small and requires
// every operation to have passed its check and every end-to-end metric
// to be a positive number.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			units := testUnits[w.name]
			r, out := small(t, w, 1, units)
			if r.failed != 0 {
				t.Fatalf("%d of %d operations failed; first: %s", r.failed, r.attempted, r.firstFailure)
			}
			if want := int64(units * w.unitOps); r.attempted != want {
				t.Fatalf("attempted %d operations, want %d", r.attempted, want)
			}
			e2e := endToEnd(r, out)
			sameMetrics(t, e2e, readManifest(t).EndToEnd)
			for _, m := range e2e {
				if !(m.value > 0) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v, want a positive number", m.name, m.value)
				}
			}
		})
	}
}

// TestModelRowsFollowTheSeed: the simulated-work rows are exact, so the
// same seed must reproduce them and another seed must not.
func TestModelRowsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		if w == tcpInvoke {
			continue // real time: no simulated work to count
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			a, _ := small(t, w, 7, 1)
			b, _ := small(t, w, 7, 1)
			c, _ := small(t, w, 8, 1)
			if a.model != b.model {
				t.Errorf("same seed, different model rows:\n%+v\n%+v", a.model, b.model)
			}
			if a.model == c.model {
				t.Errorf("seeds 7 and 8 gave the same model rows: %+v", a.model)
			}
			if a.model.virtualMs <= 0 || a.model.rmiCalls <= 0 {
				t.Errorf("model rows not populated: %+v", a.model)
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs one traced workload and holds the
// per-layer report to the names and units BENCHMARK.json declares.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	w := *simInvoke
	w.blockUnits = 500 // two blocks, one traced and one not, without a full-size window
	r, out, err := execute(&w, config{seed: 1, units: 2 * w.blockUnits, setups: 1, traced: true, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	defer out.release()
	rows := perLayer(r, out)
	sameMetrics(t, rows, readManifest(t).PerLayer)
	got := map[string]float64{}
	for _, m := range rows {
		got[m.name] = m.value
	}
	for _, name := range []string{"vclock.switch_ns", "core.sinvoke_ns", "rmi.call_tcp_ns", "op.sinvoke_p50_us", "trace.overhead_ratio", "model.rmi_calls"} {
		if !(got[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, got[name])
		}
	}
}

func TestWorkloadNamesMatchManifest(t *testing.T) {
	declared := readManifest(t).Workloads
	if len(declared) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(declared), len(workloads))
	}
	for i, w := range workloads {
		if declared[i].Name != w.name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, w.name, declared[i].Name)
		}
	}
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 50, 0},
		{"one sample p50", []float64{7}, 50, 7},
		{"one sample p99", []float64{7}, 99, 7},
		{"two samples p50", []float64{1, 3}, 50, 2},
		{"ties", []float64{5, 5, 5, 5}, 99, 5},
		{"ties at the top", []float64{1, 9, 9, 9}, 99, 9},
		{"p0", []float64{1, 2, 3}, 0, 1},
		{"p100", []float64{1, 2, 3}, 100, 3},
		{"interpolated", []float64{0, 10, 20, 30, 40}, 90, 36},
	} {
		if got := percentile(tc.sorted, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.q, got, tc.want)
		}
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median(%v) = %v, want 5", in, got)
	}
	if in[0] != 9 {
		t.Errorf("median reordered its argument: %v", in)
	}
	if got := median([]float64{2, 2, 4, 4}); got != 3 {
		t.Errorf("median of an even count = %v, want 3", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}

func TestSegmentPercentiles(t *testing.T) {
	// Too short to cut: the window is taken whole.
	p50, p99, per := segmentPercentiles([]float64{3, 1, 2})
	if p50 != 2 || math.Abs(p99-2.98) > 1e-9 || per != 3 {
		t.Errorf("short window: p50=%v p99=%v per=%v, want 2, 2.98, 3", p50, p99, per)
	}
	if p50, p99, per := segmentPercentiles(nil); p50 != 0 || p99 != 0 || per != 0 {
		t.Errorf("empty window: p50=%v p99=%v per=%v, want zeros", p50, p99, per)
	}
	// One disturbed part in five must not move either percentile.
	const parts = 5
	quiet := make([]float64, parts*minSegment)
	for i := range quiet {
		quiet[i] = float64(10 + i%minSegment%10)
	}
	wantP50, wantP99, per := segmentPercentiles(quiet)
	if per != minSegment {
		t.Fatalf("samples per segment = %d, want %d", per, minSegment)
	}
	disturbed := append([]float64(nil), quiet...)
	for i := 2 * minSegment; i < 3*minSegment; i++ {
		disturbed[i] *= 50
	}
	if p50, p99, _ := segmentPercentiles(disturbed); p50 != wantP50 || p99 != wantP99 {
		t.Errorf("a disturbed part moved the percentiles: %v/%v, want %v/%v", p50, p99, wantP50, wantP99)
	}
}

func TestBlockRates(t *testing.T) {
	// Three full blocks of two 1 ms units of 5 ops each, and a partial
	// block that must be dropped.
	samples := []int64{1e6, 1e6, 2e6, 2e6, 1e6, 3e6, 1e6}
	got := blockRates(samples, 2, 5)
	want := []float64{5000, 2500, 2500}
	if len(got) != len(want) {
		t.Fatalf("blockRates = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Errorf("block %d: %v ops/s, want %v", i, got[i], want[i])
		}
	}
	if got := blockRates(samples[:1], 2, 5); len(got) != 0 {
		t.Errorf("a window shorter than one block gave rates %v", got)
	}
}
