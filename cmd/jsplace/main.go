// Command jsplace is the static placement oracle driver: it runs the
// affinity analysis (internal/analysis/affinity) over workload
// packages, cuts the resulting invocation-affinity graph for a node
// budget, and emits the groups as NAS co-location hints that the
// runtime consumes at object creation (DESIGN.md §14).
//
//	go run ./cmd/jsplace ./workloads/...          # regenerate hints
//	go run ./cmd/jsplace -check ./workloads/...   # CI drift gate
//
// For every analyzed package containing a //jsplace:entry function the
// tool writes <pkgdir>/jsplace.json — a canonical, byte-stable
// rendering of the placement groups — so workloads can embed their own
// hints and CI can diff them.  Packages without entry functions are
// skipped silently.  Exits 0 when hints are written (or, with -check,
// up to date), 1 when -check finds drift, and 2 when packages fail to
// load or analyze.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"jsymphony/internal/analysis/affinity"
	"jsymphony/internal/analysis/loader"
	"jsymphony/internal/place"
)

func main() {
	var (
		budget  = flag.Int("budget", 4, "node budget: maximum number of co-location groups")
		check   = flag.Bool("check", false, "verify committed jsplace.json files are up to date; do not write")
		outFlag = flag.String("o", "", "write hints to this file instead of <pkgdir>/jsplace.json (single package only)")
		verbose = flag.Bool("v", false, "print the affinity graph for each analyzed package")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jsplace [-budget N] [-check] [-o file] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Static placement oracle: affinity analysis -> co-location hints.\n")
		fmt.Fprintf(os.Stderr, "Mark workload entry points with //jsplace:entry; override creation\n")
		fmt.Fprintf(os.Stderr, "fanout with //jsplace:fanout N on the creation line.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./workloads/..."}
	}
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsplace: %v\n", err)
		os.Exit(2)
	}

	analyzed, drifted := 0, 0
	for _, pkg := range pkgs {
		g, ok := affinity.Analyze(pkg)
		if !ok {
			continue // no //jsplace:entry — not a placed workload
		}
		analyzed++
		if *verbose {
			printGraph(g)
		}
		hints := affinity.BuildHints(g, *budget)
		data := place.Encode(hints)
		target := filepath.Join(pkg.Dir, "jsplace.json")
		if *outFlag != "" {
			target = *outFlag
		}
		if *check {
			have, err := os.ReadFile(target)
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "jsplace: %s: missing %s (run go run ./cmd/jsplace)\n", pkg.ImportPath, target)
				drifted++
			case !bytes.Equal(have, data):
				fmt.Fprintf(os.Stderr, "jsplace: %s: %s is stale (run go run ./cmd/jsplace)\n", pkg.ImportPath, target)
				drifted++
			}
			continue
		}
		if err := os.WriteFile(target, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "jsplace: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("jsplace: %s: %d groups -> %s\n", pkg.ImportPath, len(hints.Groups), target)
	}
	if *outFlag != "" && analyzed > 1 {
		fmt.Fprintf(os.Stderr, "jsplace: -o with %d analyzed packages; last one wins — pass a single package\n", analyzed)
		os.Exit(2)
	}
	if drifted > 0 {
		fmt.Fprintf(os.Stderr, "jsplace: %d stale hint file(s)\n", drifted)
		os.Exit(1)
	}
}

// printGraph dumps the extracted graph in a stable, readable form.
func printGraph(g *affinity.Graph) {
	fmt.Printf("# %s\n", g.Workload)
	for _, s := range g.Sites {
		fmt.Printf("  site %-10s class=%s fanout=%d\n", s.Tag, s.Class, s.Fanout)
	}
	for _, e := range g.Edges {
		fmt.Printf("  edge %v -- %v  w=%d\n", e.A, e.B, e.W)
	}
}
