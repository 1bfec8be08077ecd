package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"jsymphony/internal/analysis/loader"
)

// TestSurface keeps the audited surface audited (DESIGN.md §5): every
// js_* metric family in the code has a row in the naming table and every
// row an emitter, and every function of the library has a reference
// outside test files or a stated reason to exist without one.  It
// type-checks the root module and bench/ through the analysis loader, so
// a reference is a use of that exact function — package, receiver type
// and name — from a non-test file, outside the function's own body.
// Another type's method, a struct field or a composite-literal key of
// the same name is not one.  A method whose name an interface declares
// counts as referenced, and so do the names the runtime calls.
func TestSurface(t *testing.T) {
	root := filepath.Join("..", "..")
	pkgs := loadRepo(t, root)
	t.Run("families", func(t *testing.T) { checkFamilies(t, root, pkgs) })
	t.Run("functions", func(t *testing.T) { checkFunctions(t, root, pkgs) })
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

		"jsymphony.JS.ConstrHold":       "paper §4.6 API (constrHold: verify a constraint set against a component); user programs call it",
		"jsymphony.RemoteRef.SInvoke":   "paper §4.5 synchronous invocation through a handle from JS.Wrap or JS.Static; user programs call it",
		"jsymphony.RemoteRef.AInvoke":   "paper §4.5 asynchronous invocation through a handle from JS.Wrap or JS.Static; user programs call it",
		"jsymphony.ShardGroup.Grow":     "DESIGN.md §10 rebalance and handoff (ring join); experiments drive the core method",
		"jsymphony.ShardGroup.Evacuate": "DESIGN.md §10 rebalance and handoff (drain a node); experiments drive the core method",

		"internal/analysis/analysistest.Run":  "fixture harness: the analyzers' tests are its callers by design",
		"internal/codebase.Registry.Names":    "observation hook: the codec round-trip test walks every registered class through it",
		"internal/nas.Directory.ReplicaSets":  "observation hook: the replica and restore tests check the directory's mirror of each set (ROADMAP item 8)",
		"internal/core.Runtime.Instance":      "observation hook: the chaos determinism tests compare hosted state across twin runs",
		"internal/core.ShardGroup.Object":     "observation hook: the restore conformance tests reach a shard's member object through it",
		"internal/metrics.Snapshot.WriteJSON": "documented exporter (README, DESIGN.md §5); the twin-run tests compare its bytes",
		"internal/rmi.Station.DedupSize":      "observation hook: the dedup tests watch the idempotency table shrink",
		"internal/vclock.Clock.Actors":        "observation hook of the kernel's own tests",
		"internal/vclock.Mailbox.InFlight":    "observation hook of the kernel's own tests",
	}
	// The paper's §4.2 virtual-architecture API, listed there by name:
	// the constructors, add/free/count at every level, the parent
	// getters, and whether a component was freed.
	for _, fn := range []string{"NewSite", "NewEmptySite", "NewEmptyDomain"} {
		kept["jsymphony.JS."+fn] = "paper §4.2 virtual-architecture constructor (new Site, new Domain); user programs call it"
	}
	for _, fn := range []string{
		"Cluster.Freed", "Node.Freed", "Site.Freed", "Domain.Freed",
		"Node.Cluster", "Node.Site", "Cluster.Site",
		"Cluster.FreeNode", "Domain.FreeNode", "Site.NrNodes", "Domain.NrNodes",
		"Domain.AddSite", "Domain.FreeCluster", "Domain.FreeSite", "Domain.FreeSiteAt",
		"Domain.NrClusters", "Domain.NrSites",
		"Site.AddCluster", "Site.FreeCluster", "Site.NrClusters",
	} {
		kept["internal/virtarch."+fn] = "paper §4.2 virtual-architecture API"
	}
	return kept
}()

// loadRepo type-checks the non-test files of the root module and of
// bench/, its own module, whose packages count as callers too.
func loadRepo(t *testing.T, root string) []*loader.Package {
	t.Helper()
	cache := loader.NewCache()
	pkgs, err := cache.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := cache.Load(filepath.Join(root, "bench"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	return append(pkgs, bench...)
}

// relFile is a file's path relative to the repo root, slash-separated.
func relFile(root, name string) string {
	abs, _ := filepath.Abs(root)
	rel, _ := filepath.Rel(abs, name)
	return filepath.ToSlash(rel)
}

// library reports whether a file declares audited surface: non-test
// code of internal/... and the root package's API files.
func library(rel string) bool {
	return strings.HasPrefix(rel, "internal/") || rel == "env.go" || rel == "js.go" || rel == "alias.go"
}

var familyLit = regexp.MustCompile(`^js_[a-z0-9]+_[a-z0-9_]+$`)

// checkFamilies holds the DESIGN.md §5 naming table against the js_*
// families of non-test code.  Experiments and the shell name families
// to read them; bench/ is its own module with its own probe registry.
func checkFamilies(t *testing.T, root string, pkgs []*loader.Package) {
	doc, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	emitter := func(rel string) bool {
		return strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "internal/shell/")
	}
	var code []*loader.Package
	for _, p := range pkgs {
		if !strings.HasPrefix(relFile(root, p.Dir)+"/", "bench/") {
			code = append(code, p)
		}
	}
	for _, problem := range familyProblems(string(doc), root, code, emitter) {
		t.Error(problem)
	}
}

// family is what the naming table, or a family's resolve line, says
// about one js_* family: kind, label keys and the emitting file.
type family struct{ kind, labels, file string }

// familyProblems compares the "## 5." naming table of doc with the
// js_* literals of pkgs, whose files emitter (given paths relative to
// root) tells apart from readers.  Every family named in code needs a
// row, and every row an emitter.  A family is emitted at one line, its
// resolve line: the literal is passed to a metrics.Registry method,
// whose name gives the kind, directly or through metrics.Label, whose
// literal keys are the labels.  The row's kind, labels and emitter file
// must be the resolve line's.
func familyProblems(doc, root string, pkgs []*loader.Package, emitter func(rel string) bool) []string {
	rows := make(map[string]family)
	in5 := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			in5 = strings.HasPrefix(line, "## 5.")
		}
		cols := strings.Split(line, "|")
		if !in5 || len(cols) < 6 || !familyLit.MatchString(strings.Trim(cols[1], " `")) {
			continue
		}
		labels := strings.TrimSpace(cols[3])
		if i := strings.IndexByte(labels, '('); i >= 0 {
			labels = strings.TrimSpace(labels[:i]) // a note on cardinality
		}
		if labels == "—" {
			labels = ""
		}
		rows[strings.Trim(cols[1], " `")] = family{strings.TrimSpace(cols[2]), labels, strings.Trim(cols[4], " `")}
	}
	var problems []string
	unlisted := make(map[string]bool)
	sites := make(map[string][]string) // family -> emitter lines
	code := make(map[string]family)    // family -> what its resolve line says
	for _, p := range pkgs {
		for _, f := range p.Files {
			rel := relFile(root, p.Fset.File(f.Pos()).Name())
			labelVars := make(map[types.Object]*ast.CallExpr) // v := metrics.Label(...)
			ast.Inspect(f, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
					if id, ok := as.Lhs[0].(*ast.Ident); ok && metricsCall(p, as.Rhs[0], "", "Label") {
						labelVars[p.Info.ObjectOf(id)] = as.Rhs[0].(*ast.CallExpr)
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					kind := ""
					for _, k := range []string{"Counter", "Gauge", "Histogram"} {
						if metricsCall(p, n, "Registry", k) || metricsCall(p, n, "Registry", k+"Handle") {
							kind = strings.ToLower(k)
						}
					}
					if kind == "" || len(n.Args) == 0 {
						return true
					}
					arg := n.Args[0]
					if id, ok := arg.(*ast.Ident); ok && labelVars[p.Info.ObjectOf(id)] != nil {
						arg = labelVars[p.Info.ObjectOf(id)]
					}
					var keys []string
					if call, ok := arg.(*ast.CallExpr); ok && metricsCall(p, call, "", "Label") && len(call.Args) > 0 {
						arg = call.Args[0]
						for i := 1; i < len(call.Args); i += 2 {
							keys = append(keys, stringLit(call.Args[i]))
						}
					}
					if name := stringLit(arg); familyLit.MatchString(name) && emitter(rel) {
						code[name] = family{kind, strings.Join(keys, ", "), strings.TrimPrefix(rel, "internal/")}
					}
				case *ast.BasicLit:
					name := stringLit(n)
					if !familyLit.MatchString(name) {
						return true
					}
					if emitter(rel) {
						sites[name] = append(sites[name], fmt.Sprintf("%s:%d", rel, p.Fset.Position(n.Pos()).Line))
					}
					if _, ok := rows[name]; !ok && !unlisted[name] {
						unlisted[name] = true
						problems = append(problems, fmt.Sprintf("%s names %s, which has no row in the DESIGN.md §5 table", rel, name))
					}
				}
				return true
			})
		}
	}
	for name, row := range rows {
		got, at := code[name], sites[name]
		switch {
		case len(at) == 0:
			problems = append(problems, fmt.Sprintf("DESIGN.md §5 lists %s, which nothing under internal/ emits", name))
		case len(at) > 1:
			problems = append(problems, fmt.Sprintf("%s is emitted at %s: a family has one resolve line", name, strings.Join(at, ", ")))
		case got.kind != row.kind:
			problems = append(problems, fmt.Sprintf("%s: the table says %s, %s resolves a %q", name, row.kind, at[0], got.kind))
		case got.labels != row.labels:
			problems = append(problems, fmt.Sprintf("%s: the table says labels %q, %s resolves %q", name, row.labels, at[0], got.labels))
		case got.file != row.file:
			problems = append(problems, fmt.Sprintf("%s: the table says emitter %s, the resolve line is %s", name, row.file, at[0]))
		}
	}
	sort.Strings(problems)
	return problems
}

// metricsCall reports whether e calls the function name of a package
// named metrics, or its method recv.name when recv is set.
func metricsCall(p *loader.Package, e ast.Expr, recv, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	var id *ast.Ident
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Name() != "metrics" {
		return false
	}
	r := fn.Type().(*types.Signature).Recv()
	if r == nil {
		return recv == ""
	}
	named, ok := types.Unalias(deref(r.Type())).(*types.Named)
	return ok && named.Obj().Name() == recv
}

// deref strips one pointer.
func deref(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// stringLit is the value of a string literal, "" for anything else.
func stringLit(e ast.Expr) string {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	s, _ := strconv.Unquote(lit.Value)
	return s
}

// checkFunctions reports library functions with no reference outside
// test files, and keptUncalled entries that name something referenced
// or gone.
func checkFunctions(t *testing.T, root string, pkgs []*loader.Package) {
	orphans := unreferenced(pkgs, func(name string) bool { return library(relFile(root, name)) })
	seen := make(map[string]bool)
	for _, key := range orphans {
		seen[key] = true
		if keptUncalled[key] == "" {
			t.Errorf("%s has no reference outside test files and no reason in keptUncalled", key)
		}
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

// unreferenced returns, sorted, the functions and methods declared in
// the files whose names declares accepts and referenced nowhere in pkgs.  A
// reference is a use of that exact object — package, receiver type and
// name — outside the function's own body.  A method also counts as
// referenced when an interface of pkgs has a method of its name, or
// when the runtime calls that name.
func unreferenced(pkgs []*loader.Package, declares func(name string) bool) []string {
	used := make(map[string]bool)
	inInterface := make(map[string]bool)
	var decls []*types.Func
	for _, p := range pkgs {
		for _, f := range p.Files {
			audited := declares(p.Fset.File(f.Pos()).Name())
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := p.Info.Defs[fd.Name].(*types.Func)
					self = funcKey(fn)
					if audited && fd.Name.Name != "init" && fd.Name.Name != "main" {
						decls = append(decls, fn)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := p.Info.Uses[n].(*types.Func); ok && funcKey(fn) != self {
							used[funcKey(fn)] = true
						}
					case *ast.InterfaceType:
						if it, ok := p.Info.TypeOf(n).(*types.Interface); ok {
							for i := 0; i < it.NumMethods(); i++ {
								inInterface[it.Method(i).Name()] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	var orphans []string
	for _, fn := range decls {
		key := funcKey(fn)
		method := fn.Type().(*types.Signature).Recv() != nil
		if used[key] || method && (inInterface[fn.Name()] || runtimeCalled[fn.Name()]) {
			continue
		}
		orphans = append(orphans, key)
	}
	sort.Strings(orphans)
	return orphans
}

// TestSurfaceResolvesByType runs the function check over a fixture in
// which every uncalled function shares its name with something used: a
// method of another type, a struct field, a composite-literal key, or
// the function itself inside its own body.
func TestSurfaceResolvesByType(t *testing.T) {
	pkgs, err := loader.Load("testdata", "./surface")
	if err != nil {
		t.Fatal(err)
	}
	got := unreferenced(pkgs, func(string) bool { return true })
	want := []string{"fixtures/surface.Loop", "fixtures/surface.Meter.Size", "fixtures/surface.Reset", "fixtures/surface.Tape.Flush"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreferenced = %v, want %v", got, want)
	}
}

// TestSurfaceChecksFamilies runs the families check over a fixture
// whose table has a row of the wrong kind and a row of the wrong labels,
// and whose code emits one family at two lines.  Each of its other
// families matches its row, one of them resolved through a variable
// that holds its metrics.Label name.
func TestSurfaceChecksFamilies(t *testing.T) {
	pkgs, err := loader.Load("testdata", "./families/...")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("testdata", "families", "families.md"))
	if err != nil {
		t.Fatal(err)
	}
	got := familyProblems(string(doc), "testdata", pkgs, func(string) bool { return true })
	want := []string{
		`js_fix_depth: the table says histogram, families/emit.go:20 resolves a "gauge"`,
		`js_fix_latency_us: the table says labels "node", families/emit.go:21 resolves "peer"`,
		`js_fix_retries_total is emitted at families/emit.go:34, families/emit.go:37: a family has one resolve line`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// funcKey names a function "pkg.Name" and a method "pkg.Recv.Name",
// with the module prefix trimmed from the package path.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return "" // the universe's error.Error
	}
	key := strings.TrimPrefix(fn.Pkg().Path(), "jsymphony/")
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			key += "." + named.Obj().Name()
		}
	}
	return key + "." + fn.Name()
}

// runtimeCalled are method names the Go runtime and standard library
// call through their own interfaces.
var runtimeCalled = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}
