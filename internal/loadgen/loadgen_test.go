package loadgen

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

func testClasses() []Class {
	return []Class{
		{Name: "gold", Share: 0.15, Reads: 0.25},
		{Name: "silver", Share: 0.25, Reads: 0.25},
		{Name: "bronze", Share: 0.60, Reads: 0.25},
	}
}

func testConfig(seed int64, ops int) Config {
	return Config{
		Seed:    seed,
		Classes: testClasses(),
		Clients: 3_000_000,
		Keys:    64,
		Rate:    200,
		Ops:     ops,
	}
}

// Twin same-seed runs must produce byte-identical streams — the
// property every serve determinism claim reduces to.
func TestTwinStreamsIdentical(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		a, err := Generate(testConfig(seed, 5000))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Generate(testConfig(seed, 5000))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: twin streams differ", seed)
		}
		// Belt and braces: the rendered forms are byte-identical too.
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("seed %d: twin stream renderings differ", seed)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(testConfig(1, 1000))
	b, _ := Generate(testConfig(2, 1000))
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestArrivalsMonotonic(t *testing.T) {
	arr, err := Generate(testConfig(1, 5000))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].At < arr[i-1].At {
			t.Fatalf("arrival %d at %v precedes %d at %v", i, arr[i].At, i-1, arr[i-1].At)
		}
	}
}

// The hottest key's measured share must track the theoretical Zipf
// share across seeds (within sampling tolerance), and the ranking of
// the top keys must be popularity-ordered.
func TestZipfSkewWithinTolerance(t *testing.T) {
	cfg := testConfig(0, 20000)
	// Theoretical share of the hottest key: P(k) ∝ (1+k)^-1.1 over the
	// key space.
	var norm float64
	for k := uint64(0); k < cfg.Keys; k++ {
		norm += math.Pow(1+float64(k), -1.1)
	}
	want := 1 / norm
	for _, seed := range []int64{1, 2, 3, 7, 11} {
		cfg.Seed = seed
		arr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int)
		for _, a := range arr {
			counts[a.Key]++
		}
		hot := counts["k00000"]
		got := float64(hot) / float64(len(arr))
		if math.Abs(got-want)/want > 0.25 {
			t.Errorf("seed %d: hottest key share %.4f, want %.4f ±25%%", seed, got, want)
		}
		// Rank-1 must dominate a mid-popularity key decisively.
		if mid := counts["k00020"]; mid >= hot {
			t.Errorf("seed %d: key k00020 (%d) out-drew the hottest key (%d)", seed, mid, hot)
		}
	}
}

// Realized mean interarrival must track 1/Rate across seeds: the
// bounded Pareto is normalized to unit mean, so the stream's span is
// ~Ops/Rate seconds.
func TestInterarrivalMeanWithinTolerance(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 11} {
		cfg := testConfig(seed, 20000)
		arr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		span := arr[len(arr)-1].At - arr[0].At
		mean := span.Seconds() / float64(len(arr)-1)
		want := 1 / cfg.Rate
		if math.Abs(mean-want)/want > 0.25 {
			t.Errorf("seed %d: mean gap %.6fs, want %.6fs ±25%%", seed, mean, want)
		}
	}
}

// Class and op mixes must track the declared shares across seeds.
func TestClassSharesWithinTolerance(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := testConfig(seed, 20000)
		arr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		byClass := make(map[string]int)
		reads := 0
		for _, a := range arr {
			byClass[a.Class]++
			if a.Op == OpRead {
				reads++
			}
		}
		for _, cl := range cfg.Classes {
			got := float64(byClass[cl.Name]) / float64(len(arr))
			if math.Abs(got-cl.Share)/cl.Share > 0.15 {
				t.Errorf("seed %d: class %s share %.3f, want %.3f ±15%%", seed, cl.Name, got, cl.Share)
			}
		}
		if got := float64(reads) / float64(len(arr)); math.Abs(got-0.25)/0.25 > 0.15 {
			t.Errorf("seed %d: read fraction %.3f, want 0.25 ±15%%", seed, got)
		}
	}
}

// A demand trace must modulate the realized rate: a stream whose trace
// halves the rate must take about twice as long.
func TestTraceModulatesRate(t *testing.T) {
	base := testConfig(1, 10000)
	slow := base
	slow.Trace = func(time.Duration) float64 { return 0.5 }
	a, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(slow)
	if err != nil {
		t.Fatal(err)
	}
	spanA := a[len(a)-1].At - a[0].At
	spanB := b[len(b)-1].At - b[0].At
	ratio := float64(spanB) / float64(spanA)
	if math.Abs(ratio-2) > 0.2 {
		t.Fatalf("half-rate trace stretched the stream %.2fx, want ~2x", ratio)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Seed: 1, Rate: 100, Ops: 10},                                                 // no classes
		{Seed: 1, Classes: []Class{{Name: "", Share: 1}}, Rate: 100, Ops: 10},         // empty name
		{Seed: 1, Classes: []Class{{Name: "a", Share: 0}}, Rate: 100, Ops: 10},        // zero shares
		{Seed: 1, Classes: testClasses(), Rate: 0, Ops: 10},                           // no rate
		{Seed: 1, Classes: testClasses(), Rate: 100, Ops: 0},                          // no ops
		{Seed: 1, Classes: []Class{{Name: "a", Share: 1, Reads: 2}}, Rate: 1, Ops: 1}, // reads > 1
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d: expected a validation error", i)
		}
	}
}
