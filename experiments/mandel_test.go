package experiments

import (
	"strings"
	"testing"

	"jsymphony"
)

func TestMandelComputeBoundScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	// The compute-bound workload must scale meaningfully further than
	// the communication-bound matrix multiplication: at 6 night nodes,
	// efficiency against the 4.17 heterogeneity bound should be high.
	base := RunMandelPoint(jsymphony.Night, 1, 1)
	six := RunMandelPoint(jsymphony.Night, 6, 1)
	speedup := base.Elapsed.Seconds() / six.Elapsed.Seconds()
	if speedup < 3.2 {
		t.Fatalf("compute-bound speedup at 6 nodes = %.2f, want >= 3.2 (bound 4.17)", speedup)
	}
	// Balance recorded for every used node.
	total := 0
	for _, c := range six.ByNode {
		total += c
	}
	if len(six.ByNode) != 6 || total == 0 {
		t.Fatalf("balance map wrong: %v", six.ByNode)
	}
}

func TestWriteMandelFormat(t *testing.T) {
	pts := []MandelPoint{
		{Profile: "night", Nodes: 1, Elapsed: 4e9},
		{Profile: "night", Nodes: 2, Elapsed: 2e9},
		{Profile: "day", Nodes: 1, Elapsed: 8e9},
		{Profile: "day", Nodes: 2, Elapsed: 4e9},
	}
	var b strings.Builder
	MandelSweep(pts).WriteText(&b)
	out := b.String()
	for _, want := range []string{"nodes", "night", "speedup", "2.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
