// Package loader turns `go list` package patterns into parsed,
// type-checked packages using only the standard library.
//
// It is the offline stand-in for golang.org/x/tools/go/packages: one
// `go list -export -json -deps` invocation enumerates the target
// packages and compiles export data for every dependency (stdlib
// included) into the build cache; the targets themselves are re-parsed
// from source for full ASTs with comments, and type-checked with the
// stdlib gc importer reading the dependency export data.  No network,
// no third-party modules.
//
// A Cache amortizes that cost across loads: drivers that resolve
// several pattern sets (cmd/jsvet's multichecker, cmd/jsplace over
// many workload packages, fixture test suites) share one FileSet, one
// accumulated export-data table, and one gc importer, so each stdlib
// dependency is read once per process instead of once per Load.
//
// Test files are intentionally excluded: the repo's _test.go files
// drive the real scheduler (wall-clock deadlines, time.Sleep polling)
// legitimately, while the determinism invariants apply to the non-test
// build graph that runs under simulation.
package loader

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
}

// Cache is a process-lifetime loader: repeated Load calls share the
// `go list` output (memoized per dir+patterns), the accumulated export
// table, one FileSet, and one gc importer, so dependency export data is
// parsed at most once.  Results are memoized too — loading the same
// patterns twice returns the same *Package values.  Safe for use from
// one goroutine (the analysis drivers are sequential).
type Cache struct {
	// ListFn runs `go list` with the given args in dir.  Tests inject a
	// counting or canned runner; nil means the real toolchain.
	ListFn func(dir string, args []string) ([]byte, error)

	once    sync.Once
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
	lists   map[string][]byte     // memoized raw `go list` output
	loads   map[string][]*Package // memoized full Load results
}

// NewCache returns an empty cache using the real go toolchain.
func NewCache() *Cache { return &Cache{} }

func (c *Cache) init() {
	c.once.Do(func() {
		c.fset = token.NewFileSet()
		c.exports = make(map[string]string)
		c.lists = make(map[string][]byte)
		c.loads = make(map[string][]*Package)
		c.imp = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := c.exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		})
	})
}

// runList executes (or replays) one `go list` invocation.
func (c *Cache) runList(dir string, patterns []string) ([]byte, error) {
	key := dir + "\x00" + strings.Join(patterns, "\x00")
	if out, ok := c.lists[key]; ok {
		return out, nil
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Standard",
	}, patterns...)
	var out []byte
	var err error
	if c.ListFn != nil {
		out, err = c.ListFn(dir, args)
	} else {
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err = cmd.Output()
		if err != nil {
			err = fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
		}
	}
	if err != nil {
		return nil, err
	}
	c.lists[key] = out
	return out, nil
}

// Load resolves patterns relative to dir (a module root) and returns
// the matched packages, sorted by import path.  Packages must compile:
// the export step is `go build`'s front half, so a syntax or type
// error fails the load with the compiler's own message.
func (c *Cache) Load(dir string, patterns ...string) ([]*Package, error) {
	c.init()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	key := dir + "\x00" + strings.Join(patterns, "\x00")
	if pkgs, ok := c.loads[key]; ok {
		return pkgs, nil
	}
	out, err := c.runList(dir, patterns)
	if err != nil {
		return nil, err
	}

	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			c.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	var pkgs []*Package
	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(c.fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: c.imp}
		if _, err := conf.Check(t.ImportPath, c.fset, files, info); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			Fset:       c.fset,
			Files:      files,
			Info:       info,
		})
	}
	c.loads[key] = pkgs
	return pkgs, nil
}

// Load is the one-shot form: a fresh Cache per call, for callers that
// resolve a single pattern set.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return NewCache().Load(dir, patterns...)
}
