package experiments

import (
	"strings"
	"testing"

	"jsymphony"
)

// TestFigure5Shape runs a reduced sweep and checks the paper's
// qualitative claims (EXPERIMENTS.md records the full sweep).
func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	res := Figure5Result{Points: Figure5(Figure5Config{Sizes: []int{200, 800}, MaxNodes: 13, Seed: 1})}
	lines, ok := res.Claims()
	for _, l := range lines {
		t.Log(l)
	}
	if !ok {
		var b strings.Builder
		res.WriteText(&b)
		t.Fatalf("Figure 5 shape check failed:\n%s", b.String())
	}
}

func TestFigure5PointSequentialBaseline(t *testing.T) {
	// The 1-node point is the sequential baseline: it must be close to
	// 2N³ / MFlops on the fastest (first-allocated) machine at night.
	pt := RunFigure5Point(jsymphony.Night, 400, 1, 1)
	ideal := 2.0 * 400 * 400 * 400 / (jsymphony.Ultra10_440.MFlops * 1e6)
	got := pt.Elapsed.Seconds()
	if got < ideal*0.95 || got > ideal*1.25 {
		t.Fatalf("sequential N=400 = %.2fs, want ~%.2fs (night)", got, ideal)
	}
}

func TestWriteFigure5Format(t *testing.T) {
	pts := []Figure5Point{
		{Profile: "night", N: 200, Nodes: 1, Elapsed: 2e9},
		{Profile: "night", N: 200, Nodes: 2, Elapsed: 1e9},
		{Profile: "day", N: 200, Nodes: 1, Elapsed: 4e9},
		{Profile: "day", N: 200, Nodes: 2, Elapsed: 3e9},
	}
	var b strings.Builder
	Figure5Result{Points: pts}.WriteText(&b)
	out := b.String()
	for _, want := range []string{"nodes", "night N=200", "day N=200", "2.00s", "3.00s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestFigure5MetricsDeterminism reruns one cell with the same seed and
// demands byte-identical metrics snapshots: every timing in the registry
// derives from the virtual clock, so nothing about the host machine may
// leak in.
func TestFigure5MetricsDeterminism(t *testing.T) {
	a := RunFigure5Point(jsymphony.Night, 120, 4, 7)
	b := RunFigure5Point(jsymphony.Night, 120, 4, 7)
	var ja, jb strings.Builder
	if err := a.Metrics.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.Metrics.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Fatalf("same-seed runs produced different metrics snapshots:\n--- run 1\n%s\n--- run 2\n%s",
			ja.String(), jb.String())
	}
	if len(a.Metrics.Counters) == 0 || len(a.Metrics.Histograms) == 0 {
		t.Fatalf("snapshot suspiciously empty: %+v", a.Metrics)
	}
	path, _, cells := Figure5Result{Points: []Figure5Point{a}}.SideOutput(Params{MetricsOut: "m.json"})
	mb, err := encodeArtifact(cells)
	if err != nil || path != "m.json" {
		t.Fatalf("metrics side output: path %q, err %v", path, err)
	}
	for _, want := range []string{`"profile": "night"`, `"nodes": 4`, `"js_rmi_calls_total`} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("metrics export missing %q:\n%.2000s", want, mb)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := defaultFigure5Config(1)
	if len(c.Sizes) != 4 || c.MaxNodes != 13 || c.Seed != 1 {
		t.Fatalf("defaults = %+v", c)
	}
}
