// Command jsbench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	jsbench -experiment NAME [-seed 1] [-out result.json]
//	jsbench -experiment all
//
// NAME is an experiment registered in experiments.Registry (jsbench -h
// lists them).  Every experiment runs the same way: banner, run, text
// report, JSON artifact, PASS/FAIL claims; the exit status is 1 when a
// claim fails.  An experiment with a committed artifact writes
// BENCH_<name>.json unless -out names another file; the output is
// byte-deterministic for a fixed seed.
//
// -experiment all runs every entry in turn, in this one process, at the
// pinned seed 1 and rewrites every committed artifact in place, so
//
//	go run ./cmd/jsbench -experiment all && git diff --exit-code -- 'BENCH_*.json'
//
// answers "is the evidence current?".
//
// fig5 also reads -sizes, -maxnodes (as does mandel), -chaos and
// -metricsout (each run's full metrics snapshot); slo reads -flightout
// (the flight recorder's preserved dumps).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"jsymphony/experiments"
)

func main() {
	var names []string
	for _, e := range experiments.Registry {
		names = append(names, e.Name)
	}
	list := strings.Join(names, ", ")

	experiment := flag.String("experiment", "fig5", "experiment to run: "+list+", or all")
	sizes := flag.String("sizes", "200,400,600,800", "comma-separated problem sizes (fig5)")
	maxNodes := flag.Int("maxnodes", 13, "sweep node counts 1..maxnodes (fig5, mandel)")
	seed := flag.Int64("seed", 1, "simulation seed")
	metricsOut := flag.String("metricsout", "", "write per-run metrics snapshots to this JSON file (fig5)")
	chaosPlan := flag.String("chaos", "", `fault-injection plan, e.g. "loss:*:0.02" or "crashes:20s+5s" (fig5)`)
	out := flag.String("out", "", "write the result JSON here instead of the experiment's BENCH_<name>.json (not with all)")
	flightOut := flag.String("flightout", "", "write the flight recorder's preserved dumps to this JSON file (slo)")
	flag.Parse()

	p := experiments.Params{
		Seed: *seed, MaxNodes: *maxNodes, Chaos: *chaosPlan,
		MetricsOut: *metricsOut, FlightOut: *flightOut,
	}
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "jsbench: bad size %q\n", s)
			os.Exit(2)
		}
		p.Sizes = append(p.Sizes, n)
	}

	if *experiment == "all" {
		if *seed != 1 || *out != "" {
			fmt.Fprintln(os.Stderr, "jsbench: -experiment all rewrites the committed seed-1 artifacts; it takes neither -seed nor -out")
			os.Exit(2)
		}
		ok := true
		for _, e := range experiments.Registry {
			ok = run(e, p, "") && ok
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	for _, e := range experiments.Registry {
		if e.Name == *experiment {
			if !run(e, p, *out) {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "jsbench: unknown experiment %q (have %s, all)\n", *experiment, list)
	os.Exit(2)
}

// run drives one experiment and reports whether all of its claims held.
func run(e experiments.Entry, p experiments.Params, out string) bool {
	fmt.Println(e.Banner)
	fmt.Println()
	res := e.Run(p)
	res.WriteText(os.Stdout)
	fmt.Println()
	lines, ok := res.Claims()

	if out == "" {
		out = e.Artifact
	}
	switch {
	case out == "":
	case !ok && out == e.Artifact:
		// A result that fails its claims is not evidence: leave the
		// committed artifact as it was.  An explicit -out still gets it.
		fmt.Printf("claims failed: %s left untouched\n\n", out)
	default:
		write(out, "result", res)
	}
	if s, has := res.(experiments.SideOutput); has {
		if path, what, v := s.SideOutput(p); path != "" {
			write(path, what, v)
		}
	}
	if len(lines) > 0 {
		fmt.Println("Claims:")
		for _, l := range lines {
			fmt.Println("  " + l)
		}
		fmt.Println()
	}
	return ok
}

func write(path, what string, v any) {
	if err := experiments.WriteArtifact(path, v); err != nil {
		fmt.Fprintf(os.Stderr, "jsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s written to %s\n\n", what, path)
}
