package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"jsymphony"
	"jsymphony/workloads/mandelbrot"
)

// The Mandelbrot extension experiment (E2): the same master/slave
// pattern as Figure 5, but compute-bound — tasks carry a handful of
// bytes, so the workload keeps scaling where the matrix multiplication
// flattens, isolating communication as the cause of Figure 5's
// degradation.

// MandelPoint is one cell of the extension experiment.
type MandelPoint struct {
	Profile string
	Nodes   int
	Elapsed time.Duration
	ByNode  map[string]int // dynamic balance (tasks per node)
}

// RunMandelPoint renders one fixed frame on a fresh paper cluster.
func RunMandelPoint(profile jsymphony.LoadProfile, nodes int, seed int64) MandelPoint {
	env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), profile, seed, jsymphony.EnvOptions{})
	var pt MandelPoint
	env.RunMain("", func(js *jsymphony.JS) {
		cfg := mandelbrot.Config{Width: 512, Height: 512, MaxIter: 512, Nodes: nodes, Model: true}
		st, err := mandelbrot.Run(js, cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: mandel nodes=%d: %v", nodes, err))
		}
		pt = MandelPoint{Profile: profile.Name, Nodes: nodes, Elapsed: st.Elapsed, ByNode: st.TasksByNode}
	})
	return pt
}

// MandelSweep is the extension experiment's result.
type MandelSweep []MandelPoint

// Mandel sweeps node counts 1..maxNodes under night and day load.
func Mandel(maxNodes int, seed int64) MandelSweep {
	if maxNodes <= 0 {
		maxNodes = 13
	}
	var out MandelSweep
	for _, profile := range []jsymphony.LoadProfile{jsymphony.Night, jsymphony.Day} {
		for nodes := 1; nodes <= maxNodes; nodes++ {
			out = append(out, RunMandelPoint(profile, nodes, seed))
		}
	}
	return out
}

// Claims: the sweep is a contrast to read against Figure 5, not a gate.
func (pts MandelSweep) Claims() ([]string, bool) { return nil, true }

// WriteText renders the sweep with per-point speedups.
func (pts MandelSweep) WriteText(w io.Writer) {
	base := map[string]time.Duration{}
	for _, pt := range pts {
		if pt.Nodes == 1 {
			base[pt.Profile] = pt.Elapsed
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "nodes\tnight\tspeedup\tday\tspeedup")
	byKey := map[string]MandelPoint{}
	maxNodes := 0
	for _, pt := range pts {
		byKey[fmt.Sprintf("%s/%d", pt.Profile, pt.Nodes)] = pt
		if pt.Nodes > maxNodes {
			maxNodes = pt.Nodes
		}
	}
	for n := 1; n <= maxNodes; n++ {
		night, okN := byKey[fmt.Sprintf("night/%d", n)]
		day, okD := byKey[fmt.Sprintf("day/%d", n)]
		if !okN || !okD {
			continue
		}
		fmt.Fprintf(tw, "%d\t%.2fs\t%.2f\t%.2fs\t%.2f\n",
			n, night.Elapsed.Seconds(), base["night"].Seconds()/night.Elapsed.Seconds(),
			day.Elapsed.Seconds(), base["day"].Seconds()/day.Elapsed.Seconds())
	}
	tw.Flush()
}
