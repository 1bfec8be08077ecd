package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestSurface keeps the audited surface audited (DESIGN.md §5): every
// js_* metric family in the code has a row in the naming table and every
// row an emitter, and every function of the library has a reference
// outside test files or a stated reason to exist without one.  It is
// syntactic on purpose — go/parser only, names not types — and errs
// toward silence: a method counts as referenced when any selector or
// interface in non-test code carries its name.
func TestSurface(t *testing.T) {
	root := filepath.Join("..", "..")
	files := parseRepo(t, root)
	t.Run("families", func(t *testing.T) { checkFamilies(t, root, files) })
	t.Run("functions", func(t *testing.T) { checkFunctions(t, files) })
}

// keptUncalled lists the library functions that stay although nothing
// outside test files references them, each with the reason.
var keptUncalled = func() map[string]string {
	kept := map[string]string{
		"jsymphony.JS.Env":           "the session's way back to its environment (nodes, world); the root package's tests reach the cluster through it",
		"jsymphony.JS.NewObjectNear": "paper §4.4 API (create on the node of another object); user programs call it, jsplace models it",
		"jsymphony.JS.Static":        "paper §7's announced static-method extension (DESIGN.md S12); user programs call it",
		"jsymphony.JS.Wrap":          "makes a handle received from another application invocable (first-order handles, §4); jsplace models it",
		"jsymphony.NewFileStorage":   "the only Storage that is actually external (paper §4.7); deployments pass it in EnvOptions",

		"internal/analysis/analysistest.Run":  "fixture harness: the analyzers' tests are its callers by design",
		"internal/core.App.LoadShardGroup":    "restore half of ShardGroup.Store (§4.7 for groups); TestRestoreConformance holds it to the other restore paths",
		"internal/core.Runtime.Instance":      "observation hook: the chaos determinism tests compare hosted state across twin runs",
		"internal/core.ShardGroup.Object":     "observation hook: the restore conformance tests reach a shard's member object through it",
		"internal/metrics.Snapshot.WriteJSON": "documented exporter (README, DESIGN.md §5); the twin-run tests compare its bytes",
		"internal/rmi.Station.DedupSize":      "observation hook: the dedup tests watch the idempotency table shrink",
		"internal/vclock.Clock.Actors":        "observation hook of the kernel's own tests",
		"internal/vclock.Mailbox.InFlight":    "observation hook of the kernel's own tests",
	}
	// The paper's §4.2 virtual-architecture API, listed there by name:
	// the constructors, add/free/count at every level, and whether a
	// component was freed.
	for _, fn := range []string{"NewSite", "NewEmptySite", "NewEmptyDomain"} {
		kept["jsymphony.JS."+fn] = "paper §4.2 virtual-architecture constructor (new Site, new Domain); user programs call it"
	}
	for _, fn := range []string{
		"Cluster.Freed", "Node.Freed", "Site.Freed", "Domain.Freed",
		"Domain.AddSite", "Domain.FreeCluster", "Domain.FreeSite", "Domain.FreeSiteAt",
		"Domain.NrClusters", "Domain.NrSites",
		"Site.AddCluster", "Site.FreeCluster", "Site.NrClusters",
	} {
		kept["internal/virtarch."+fn] = "paper §4.2 virtual-architecture API"
	}
	return kept
}()

// srcFile is one parsed .go file, path relative to the repo root.
type srcFile struct {
	rel  string
	test bool
	ast  *ast.File
}

// dir is the file's package directory ("." for the root package).
func (f srcFile) dir() string { return filepath.ToSlash(filepath.Dir(f.rel)) }

// library reports whether the file declares audited surface: non-test
// code of internal/... and the root package's API files.
func (f srcFile) library() bool {
	if f.test {
		return false
	}
	return strings.HasPrefix(f.rel, "internal/") || f.rel == "env.go" || f.rel == "js.go" || f.rel == "alias.go"
}

func parseRepo(t *testing.T, root string) []srcFile {
	t.Helper()
	var files []srcFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files = append(files, srcFile{rel: filepath.ToSlash(rel), test: strings.HasSuffix(name, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

var (
	familyLit = regexp.MustCompile(`^js_[a-z0-9]+_[a-z0-9_]+$`)
	familyRow = regexp.MustCompile("^\\| `(js_[a-z0-9_]+)` \\|")
)

// checkFamilies holds the DESIGN.md §5 naming table against the js_*
// string literals of non-test code.
func checkFamilies(t *testing.T, root string, files []srcFile) {
	doc, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool)
	in5 := false
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			in5 = strings.HasPrefix(line, "## 5.")
		}
		if m := familyRow.FindStringSubmatch(line); m != nil && in5 {
			rows[m[1]] = true
		}
	}
	emitted, reported := make(map[string]bool), make(map[string]bool)
	for _, f := range files {
		// bench/ is its own module with its own probe registry.
		if f.test || strings.HasPrefix(f.rel, "bench/") {
			continue
		}
		// Experiments, the shell and bench/ name families to read them.
		emitter := strings.HasPrefix(f.rel, "internal/") && !strings.HasPrefix(f.rel, "internal/shell/")
		ast.Inspect(f.ast, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil || !familyLit.MatchString(name) {
				return true
			}
			if emitter {
				emitted[name] = true
			}
			if !rows[name] && !reported[name] {
				reported[name] = true
				t.Errorf("%s names %s, which has no row in the DESIGN.md §5 table", f.rel, name)
			}
			return true
		})
	}
	for name := range rows {
		if !emitted[name] {
			t.Errorf("DESIGN.md §5 lists %s, which nothing under internal/ emits", name)
		}
	}
}

// checkFunctions reports library functions with no reference outside
// test files.  bench/, examples/, cmd/, experiments/ and workloads/
// count as callers.
func checkFunctions(t *testing.T, files []srcFile) {
	sameDir := make(map[string]map[string]bool) // dir -> identifiers used in its non-test files
	qualified := make(map[string]bool)          // "import/path.Name" selectors
	selected := make(map[string]bool)           // names selected from anything, or declared by an interface
	for _, f := range files {
		if f.test {
			continue
		}
		imports := make(map[string]string) // local name -> import path
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			local := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = path
		}
		used := sameDir[f.dir()]
		if used == nil {
			used = make(map[string]bool)
			sameDir[f.dir()] = used
		}
		declared := make(map[*ast.Ident]bool) // declaration names and selector fields: not references
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
			case *ast.SelectorExpr:
				declared[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					// heap.Remove names a package's function, not a method.
					qualified[imports[x.Name]+"."+n.Sel.Name] = true
				} else {
					selected[n.Sel.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						selected[name.Name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			}
			return true
		})
	}

	seen := make(map[string]bool)
	var orphans []string
	for _, f := range files {
		if !f.library() {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "main" {
				continue
			}
			name, dir := fn.Name.Name, f.dir()
			key, pkg := dir, "jsymphony/"+dir
			if dir == "." {
				key, pkg = "jsymphony", "jsymphony"
			}
			var referenced bool
			if fn.Recv == nil {
				key += "." + name
				referenced = sameDir[dir][name] || qualified[pkg+"."+name]
			} else {
				key += "." + recvType(fn.Recv.List[0].Type) + "." + name
				referenced = selected[name] || runtimeCalled[name]
			}
			if referenced {
				continue
			}
			seen[key] = true
			if keptUncalled[key] == "" {
				orphans = append(orphans, key)
			}
		}
	}
	sort.Strings(orphans)
	for _, key := range orphans {
		t.Errorf("%s has no reference outside test files and no reason in keptUncalled", key)
	}
	for key, reason := range keptUncalled {
		if !seen[key] {
			t.Errorf("keptUncalled lists %s, which is referenced or gone; drop the entry", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("keptUncalled[%s] carries no reason", key)
		}
	}
}

// runtimeCalled are method names the Go runtime and standard library
// call through their own interfaces.
var runtimeCalled = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// recvType names a method's receiver type without star or type
// parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
