// Command jsvet is the repository's determinism and distributed-
// correctness lint suite: a multichecker over the analyzers in
// internal/analysis, in the mold of a go/analysis multichecker but
// built on the standard library only.
//
//	go run ./cmd/jsvet ./...
//
// exits 0 when the build graph is clean, 1 with file:line:col
// diagnostics otherwise, and 2 when packages fail to load.  The five
// invariants (see DESIGN.md §9): walltime, globalrand, mapiter,
// locksend, errcmp; plus the directive checker validating every
// //jsvet:allow waiver.  Test files are not analyzed — _test.go code
// drives the real scheduler legitimately; the determinism surface is
// the non-test build graph that runs under simulation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"jsymphony/internal/analysis"
	"jsymphony/internal/analysis/errcmp"
	"jsymphony/internal/analysis/globalrand"
	"jsymphony/internal/analysis/loader"
	"jsymphony/internal/analysis/locksend"
	"jsymphony/internal/analysis/mapiter"
	"jsymphony/internal/analysis/walltime"
)

// suite is the full analyzer set, in report order.
var suite = []*analysis.Analyzer{
	walltime.Analyzer,
	globalrand.Analyzer,
	mapiter.Analyzer,
	locksend.Analyzer,
	errcmp.Analyzer,
}

func main() {
	var (
		listFlag = flag.Bool("list", false, "list analyzers and exit")
		onlyFlag = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jsvet [-only a,b] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Determinism & distributed-correctness lint for this repository.\n")
		fmt.Fprintf(os.Stderr, "Waive a finding in place with: //jsvet:allow <analyzer> <reason>\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected, names := selectAnalyzers(*onlyFlag)
	if selected == nil {
		fmt.Fprintf(os.Stderr, "jsvet: -only names unknown analyzer (have %s)\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	// The directive checker always runs: a malformed waiver must fail
	// the build even when its analyzer is deselected.  Staleness is
	// judged only against the analyzers that ran, so -only does not
	// condemn the deselected analyzers' waivers.
	var ranNames []string
	for _, a := range selected {
		ranNames = append(ranNames, a.Name)
	}
	selected = append(selected, analysis.DirectiveChecker(names, ranNames))

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsvet: %v\n", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	found := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg.Fset, pkg.Files, pkg.Info, selected)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jsvet: %s: %v\n", pkg.ImportPath, err)
			os.Exit(2)
		}
		for _, d := range diags {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = rel
			}
			fmt.Println(d)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "jsvet: %d finding(s)\n", found)
		os.Exit(1)
	}
}

// selectAnalyzers resolves -only; it returns the full suite's names
// either way so callers can report them.
func selectAnalyzers(only string) ([]*analysis.Analyzer, []string) {
	var names []string
	for _, a := range suite {
		names = append(names, a.Name)
	}
	if only == "" {
		return append([]*analysis.Analyzer(nil), suite...), names
	}
	var out []*analysis.Analyzer
	for _, want := range strings.Split(only, ",") {
		want = strings.TrimSpace(want)
		found := false
		for _, a := range suite {
			if a.Name == want {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, names
		}
	}
	return out, names
}
