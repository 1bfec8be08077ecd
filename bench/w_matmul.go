package main

import (
	"jsymphony"
	"jsymphony/workloads/matmul"
)

// The matmul workload replays one cell of the paper's Figure 5 per
// operation: N=400 on 6 of the 13 paper workstations at night, with the
// arithmetic modelled and the real operand bytes still shipped.

const (
	matmulN      = 400
	matmulNodes  = 6
	matmulWarmup = 2
	// matmul.Run cuts the matrix into ~8 tasks per node.
	matmulTasks = matmulN / (matmulN / (8 * matmulNodes))
)

// matmulCell runs one cell on a fresh environment and returns its stats
// and the simulated work it did, counted by count.
func matmulCell(r *run, cfg matmul.Config, count func(*jsymphony.Env) modelRows) (matmul.Stats, modelRows) {
	env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.Night, cfg.Seed, jsymphony.EnvOptions{})
	var st matmul.Stats
	var err error
	env.RunMain("", func(js *jsymphony.JS) {
		st, err = matmul.Run(js, cfg)
	})
	if err != nil {
		r.failf("matmul cell seed %d: %v", cfg.Seed, err)
	}
	return st, count(env)
}

var simMatmul = &workload{
	name: "sim_matmul",
	why: "a Figure 5 cell per op: a few hundred RMIs carrying 10-640 KB float32 bodies plus world boot, NAS " +
		"selection, class loading and object creation each time; bulk codec and link costing dominate, per-call overhead does not",
	unitOps: 1, blockUnits: 8,
	unitKind: func(int) uint8 { return 0 }, kinds: []string{"cell"},
	run: func(r *run, body func(unit func(i int))) {
		// One small cell with the arithmetic executed, compared
		// element for element with the sequential product, shows the
		// data path the modelled cells time is a correct one.
		r.phase("warm")
		exact := matmul.Config{N: 64, Nodes: matmulNodes, Seed: r.cfg.seed}
		st, _ := matmulCell(r, exact, simCounters)
		a, b := matmul.Operands(exact)
		want := matmul.Multiply(a, b, exact.N)
		if len(st.C) != len(want) {
			r.failf("exact cell returned %d elements, want %d", len(st.C), len(want))
		} else {
			for i := range want {
				if st.C[i] != want[i] {
					r.failf("exact cell: C[%d] = %v, want %v", i, st.C[i], want[i])
					break
				}
			}
		}
		cell := func(i int, count func(*jsymphony.Env) modelRows) modelRows {
			st, work := matmulCell(r, matmul.Config{N: matmulN, Nodes: matmulNodes, Model: true, Seed: r.cfg.seed + int64(i)}, count)
			if st.Tasks != matmulTasks || st.Nodes != matmulNodes || st.Elapsed <= 0 {
				r.failf("cell %d: tasks=%d nodes=%d elapsed=%v", i, st.Tasks, st.Nodes, st.Elapsed)
			}
			return work
		}
		// Every cell boots its own world, so the simulated work of the
		// run is the sum over cells; the warm-up cells fix model.*.
		var total modelRows
		for i := 0; i < matmulWarmup; i++ {
			total = total.add(cell(i, modelCounters))
		}
		r.model = total
		r.counters = func() modelRows { return total }
		body(func(i int) { total = total.add(cell(matmulWarmup+i, simCounters)) })
	},
}
