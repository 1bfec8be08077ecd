package experiments

import (
	"fmt"
	"io"
	"time"

	"jsymphony"
	"jsymphony/internal/trace"
	"jsymphony/workloads/matmul"
)

// The recovery experiment quantifies the price of surviving a node
// crash: the paper announces fault tolerance as future work (§5.1, §7),
// and this repository implements it with checkpoint-based recovery
// driven by the deterministic chaos subsystem.  The experiment runs the
// paper's matrix multiplication twice on the same uniform cluster —
// once undisturbed, once with a worker crashed mid-run — and reports
// the recovery overhead.  Both runs use the exact (non-modeled)
// workload so the crashed run's product can be verified against the
// sequential reference: recovery must not just finish, it must finish
// *right*.

// RecoveryConfig parameterizes the experiment.  Fields are used as given:
// start from defaultRecoveryConfig, the values the registry runs.
type RecoveryConfig struct {
	Seed       int64         // simulation and workload seed
	N          int           // problem size (exact arithmetic)
	Nodes      int           // cluster size; every node hosts a slave
	Checkpoint time.Duration // checkpoint period
	CrashAt    time.Duration // when the victim dies, mid-run
}

// defaultRecoveryConfig is the experiment as the registry runs it.
func defaultRecoveryConfig(seed int64) RecoveryConfig {
	return RecoveryConfig{
		Seed:       seed,
		N:          384,
		Nodes:      4,
		Checkpoint: 250 * time.Millisecond,
		CrashAt:    1500 * time.Millisecond,
	}
}

// RecoveryResult is the experiment's outcome.
type RecoveryResult struct {
	Config    RecoveryConfig
	Baseline  time.Duration // undisturbed run
	WithCrash time.Duration // run with one worker crashed at CrashAt
	Recovered int           // objects re-materialized from checkpoints
	Victim    string        // the crashed node
	Correct   bool          // crashed run's product matches the reference
	Overhead  float64       // (WithCrash-Baseline)/Baseline, as a fraction
}

// Recovery runs the experiment.  The victim is node01 — with a cluster
// of exactly Nodes machines every one of them hosts a slave, so the
// crash always kills live work (node00 additionally hosts the master
// and the directory, and is therefore not a fair victim).
func Recovery(cfg RecoveryConfig) RecoveryResult {
	wl := matmul.Config{N: cfg.N, Nodes: cfg.Nodes, Model: false, Seed: cfg.Seed}
	A, B := matmul.Operands(wl)
	want := matmul.Multiply(A, B, cfg.N)

	run := func(spec *jsymphony.ChaosSpec) (time.Duration, int, []float32) {
		env := idleCluster(cfg.Nodes, cfg.Seed)
		env.SetRMIPolicy(retryPolicy(4))
		if spec != nil {
			if _, err := env.InstallChaos(spec, cfg.Seed); err != nil {
				panic(fmt.Sprintf("experiments: recovery: %v", err))
			}
		}
		var st matmul.Stats
		env.RunMain("", func(js *jsymphony.JS) {
			js.EnableRecovery(cfg.Checkpoint)
			var err error
			st, err = matmul.Run(js, wl)
			if err != nil {
				panic(fmt.Sprintf("experiments: recovery N=%d nodes=%d: %v", cfg.N, cfg.Nodes, err))
			}
		})
		return st.Elapsed, len(env.World().Trace().Filter(trace.ObjRecovered)), st.C
	}

	base, _, baseC := run(nil)
	victim := "node01"
	crashed, recovered, crashedC := run(&jsymphony.ChaosSpec{
		Faults: []jsymphony.ChaosFault{{Kind: "crash", Node: victim, At: cfg.CrashAt}},
	})

	correct := equalF32(crashedC, want) && equalF32(baseC, want)
	return RecoveryResult{
		Config:    cfg,
		Baseline:  base,
		WithCrash: crashed,
		Recovered: recovered,
		Victim:    victim,
		Correct:   correct,
		Overhead:  float64(crashed-base) / float64(base),
	}
}

func equalF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteText renders the result.
func (r RecoveryResult) WriteText(w io.Writer) {
	cfg := r.Config
	fmt.Fprintf(w, "matmul N=%d on %d uniform nodes, checkpoints every %v, %s crashed at t=%v\n\n",
		cfg.N, cfg.Nodes, cfg.Checkpoint, r.Victim, cfg.CrashAt)
	fmt.Fprintf(w, "  undisturbed run:    %8.2fs\n", r.Baseline.Seconds())
	fmt.Fprintf(w, "  with crash:         %8.2fs\n", r.WithCrash.Seconds())
	fmt.Fprintf(w, "  objects recovered:  %d\n", r.Recovered)
	fmt.Fprintf(w, "  result correct:     %v\n", r.Correct)
	fmt.Fprintf(w, "  recovery overhead:  %+.1f%%\n", r.Overhead*100)
}

// Claims holds recovery to finishing *right*, not just finishing.
func (r RecoveryResult) Claims() ([]string, bool) {
	var cl claims
	cl.check(r.Correct, "both runs' products match the sequential reference")
	return cl.result()
}
