package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"jsymphony"
	"jsymphony/workloads/jacobi"
	"jsymphony/workloads/kv"
	"jsymphony/workloads/matmul"
)

// The place experiment quantifies what the static placement oracle
// (cmd/jsplace + internal/analysis/affinity; DESIGN.md §14) buys: each
// placed workload runs twice on identical simulated clusters with the
// same seed — once with load-only placement, once with the workload's
// committed co-location hints installed — and the runs are compared on
// the remote-RMI counter.  Correctness is verified both times: hints
// change where objects live, never what they compute.

// PlaceConfig parameterizes the experiment.  Fields are used as given:
// start from defaultPlaceConfig, the values the registry runs.
type PlaceConfig struct {
	Seed  int64 // simulation seed
	Nodes int   // uniform cluster size (the committed hints' fanout)
}

// defaultPlaceConfig is the experiment as committed in BENCH_place.json.
func defaultPlaceConfig(seed int64) PlaceConfig {
	return PlaceConfig{Seed: seed, Nodes: 8}
}

// PlaceRun is one measured execution of one workload.
type PlaceRun struct {
	RemoteInvokes int64 // RMIs that crossed nodes
	LocalInvokes  int64 // RMIs served by the local fast path
	ElapsedUs     int64 // workload makespan in virtual time
	HintHits      int64 // creations landed on their group's pinned node
	HintSeeds     int64 // creations that seeded a group pin
	HintMisses    int64 // tagged creations absent from the hint groups
	HintRepins    int64 // groups re-anchored after losing their node
}

// PlacePoint compares the two runs of one workload.
type PlacePoint struct {
	Workload     string // "matmul", "jacobi", "kv"
	Baseline     PlaceRun
	Hinted       PlaceRun
	ReductionPct float64 // remote-RMI reduction, hinted vs baseline
	Verified     bool    // both runs produced the reference answer
}

// PlaceResult is the whole experiment.
type PlaceResult struct {
	Config PlaceConfig
	Points []PlacePoint
}

// placeHints returns the committed hints for one workload.
func placeHints(workload string) *jsymphony.PlacementHints {
	var (
		h   *jsymphony.PlacementHints
		err error
	)
	switch workload {
	case "matmul":
		h, err = matmul.PlacementHints()
	case "jacobi":
		h, err = jacobi.PlacementHints()
	case "kv":
		h, err = kv.PlacementHints()
	default:
		panic("experiments: place: unknown workload " + workload)
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: place: %s hints: %v", workload, err))
	}
	return h
}

// runPlaceCell executes one workload once on a fresh cluster and reads
// the invocation counters back.  verified reports whether the run
// produced the independently computed reference answer.
func runPlaceCell(cfg PlaceConfig, workload string, hinted bool) (run PlaceRun, verified bool) {
	env := idleCluster(cfg.Nodes, cfg.Seed)
	env.RunMain("", func(js *jsymphony.JS) {
		js.Sleep(500 * time.Millisecond) // let the first NAS reports land
		if hinted {
			js.InstallPlacementHints(placeHints(workload))
		}
		start := js.Now()
		switch workload {
		case "matmul":
			mcfg := matmul.Config{N: 32, Nodes: cfg.Nodes, Model: false, Seed: cfg.Seed}
			st, err := matmul.RunPlaced(js, mcfg)
			must(err)
			A, B := matmul.Operands(mcfg)
			want := matmul.Multiply(A, B, mcfg.N)
			verified = len(st.C) == len(want)
			for i := range want {
				if st.C[i] != want[i] {
					verified = false
					break
				}
			}
		case "jacobi":
			jcfg := jacobi.Config{Strips: cfg.Nodes, PerStrip: 8, Iters: 30, LeftBC: 100, RightBC: 0}
			st, err := jacobi.Run(js, jcfg)
			must(err)
			worst, err := jacobi.Verify(jcfg, st.Cells)
			must(err)
			verified = worst <= 1e-9
		case "kv":
			kcfg := kv.FleetConfig{Nodes: cfg.Nodes, Readers: cfg.Nodes, ReadsPerReader: 32}
			st, err := kv.RunFleet(js, kcfg)
			must(err)
			wantSum := 0
			for i := 0; i < kcfg.Readers; i++ {
				wantSum += kcfg.ReadsPerReader * (i + 1)
			}
			verified = st.Sum == wantSum && st.Reads == kcfg.Readers*kcfg.ReadsPerReader
		}
		run.ElapsedUs = (js.Now() - start).Microseconds()
	})
	reg := env.World().Metrics()
	run.RemoteInvokes = reg.Counter("js_core_remote_invokes_total").Value()
	run.LocalInvokes = reg.Counter("js_core_local_invokes_total").Value()
	run.HintHits = reg.Counter("js_place_hits_total").Value()
	run.HintSeeds = reg.Counter("js_place_seeds_total").Value()
	run.HintMisses = reg.Counter("js_place_misses_total").Value()
	run.HintRepins = reg.Counter("js_place_repins_total").Value()
	return run, verified
}

// Place runs the full experiment: each placed workload, baseline then
// hinted, on identical clusters.
func Place(cfg PlaceConfig) PlaceResult {
	res := PlaceResult{Config: cfg}
	for _, workload := range []string{"matmul", "jacobi", "kv"} {
		pt := PlacePoint{Workload: workload}
		var okBase, okHint bool
		pt.Baseline, okBase = runPlaceCell(cfg, workload, false)
		pt.Hinted, okHint = runPlaceCell(cfg, workload, true)
		pt.Verified = okBase && okHint
		if pt.Baseline.RemoteInvokes > 0 {
			delta := float64(pt.Baseline.RemoteInvokes - pt.Hinted.RemoteInvokes)
			pt.ReductionPct = math.Round(10000*delta/float64(pt.Baseline.RemoteInvokes)) / 100
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

// WriteText renders the experiment for the terminal.
func (res PlaceResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Remote RMIs, load-only vs hinted (seed %d, %d nodes)\n",
		res.Config.Seed, res.Config.Nodes)
	fmt.Fprintf(w, "  %-8s %12s %12s %9s %7s %7s %7s\n",
		"WORKLOAD", "BASE-REMOTE", "HINT-REMOTE", "CUT", "HITS", "MISSES", "OK")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "  %-8s %12d %12d %8.2f%% %7d %7d %7v\n",
			pt.Workload, pt.Baseline.RemoteInvokes, pt.Hinted.RemoteInvokes,
			pt.ReductionPct, pt.Hinted.HintHits, pt.Hinted.HintMisses, pt.Verified)
	}
}

// Claims evaluates the oracle's headline claims.
func (res PlaceResult) Claims() ([]string, bool) {
	var cl claims
	check := cl.check
	for _, pt := range res.Points {
		check(pt.Verified, "%s: both runs produced the reference answer", pt.Workload)
		check(pt.Hinted.RemoteInvokes < pt.Baseline.RemoteInvokes,
			"%s: hints reduced remote RMIs (%d -> %d, %.2f%%)",
			pt.Workload, pt.Baseline.RemoteInvokes, pt.Hinted.RemoteInvokes, pt.ReductionPct)
		check(pt.Hinted.HintMisses == 0,
			"%s: every tagged creation was covered by a hint group (%d misses)",
			pt.Workload, pt.Hinted.HintMisses)
		check(pt.Baseline.HintHits == 0 && pt.Baseline.HintSeeds == 0,
			"%s: the baseline run never consulted hints", pt.Workload)
	}
	return cl.result()
}
