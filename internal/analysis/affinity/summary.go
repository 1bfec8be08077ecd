package affinity

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"sort"

	"jsymphony/internal/analysis/loader"
)

// analyzer holds all state of one package analysis.
type analyzer struct {
	pkg *loader.Package

	classes map[*types.Named]string // registered class type -> class name
	methods map[*types.Named]map[string]*types.Func
	decls   map[*types.Func]*ast.FuncDecl // package funcs and methods with bodies
	declIdx []*types.Func                 // deterministic iteration order
	sums    map[*types.Func]*summary

	sites  map[string]*Site
	edges  map[[2]Instance]int64
	fields map[Instance]map[string]Instance // per-instance Ref-typed field values

	envm     map[types.Object]absval   // entry-pass variable bindings
	comments map[string]map[int]string // file -> line -> comment text
}

// sref abstractly names a Ref inside a function: a declared parameter
// (by index, receiver excluded) or a receiver field.
type sref struct {
	param int    // >= 0: declared parameter index
	field string // param < 0: receiver field name
}

// sumInvoke is one summarized invocation through a Ref.
type sumInvoke struct {
	target sref
	method string
	mult   int64
}

// sumStore records "receiver.field = <param>".
type sumStore struct {
	field string
	param int
}

type summary struct {
	invokes []sumInvoke
	stores  []sumStore
}

// ---------------------------------------------------------------------
// Type predicates: the jsymphony API surface the analysis recognizes.

func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

func isJSType(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

func isObjectHandle(t types.Type) bool {
	return isJSType(t, "jsymphony", "Object") || isJSType(t, "jsymphony", "RemoteRef") ||
		isJSType(t, "jsymphony/internal/core", "Object")
}

func isRefType(t types.Type) bool {
	return isJSType(t, "jsymphony/internal/core", "Ref")
}

func isCtxType(t types.Type) bool {
	return isJSType(t, "jsymphony/internal/core", "Ctx")
}

func isJSSession(t types.Type) bool {
	return isJSType(t, "jsymphony", "JS")
}

// constStringOf returns an expression's compile-time string value.
func (a *analyzer) constStringOf(e ast.Expr) (string, bool) {
	tv, ok := a.pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// constIntOf returns an expression's compile-time integer value.
func (a *analyzer) constIntOf(e ast.Expr) (int64, bool) {
	tv, ok := a.pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	n, exact := constant.Int64Val(v)
	if !exact {
		return 0, false
	}
	return n, true
}

// ---------------------------------------------------------------------
// Class registry: RegisterClass("name", size, func() any { return &T{} }).

func (a *analyzer) collectClasses() {
	a.classes = make(map[*types.Named]string)
	for _, f := range a.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 3 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "RegisterClass" {
				return true
			}
			fn, ok := a.pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "jsymphony" {
				return true
			}
			name, ok := a.constStringOf(call.Args[0])
			if !ok {
				return true
			}
			if named := factoryType(a.pkg.Info, call.Args[2]); named != nil {
				a.classes[named] = name
			}
			return true
		})
	}
	// Method tables for registered classes.
	a.methods = make(map[*types.Named]map[string]*types.Func)
	for named := range a.classes {
		ms := make(map[string]*types.Func)
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			ms[m.Name()] = m
		}
		a.methods[named] = ms
	}
}

// factoryType extracts T from a factory literal func() any { return &T{} }.
func factoryType(info *types.Info, e ast.Expr) *types.Named {
	lit, ok := e.(*ast.FuncLit)
	if !ok {
		return nil
	}
	var named *types.Named
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		if t := info.TypeOf(ret.Results[0]); t != nil {
			if n := namedOf(t); n != nil {
				named = n
				return false
			}
		}
		return true
	})
	return named
}

// classOf maps a site's class name back to its registered type.
func (a *analyzer) classType(class string) *types.Named {
	for named, name := range a.classes {
		if name == class {
			return named
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Function inventory and fixed-point summaries.

func (a *analyzer) collectFuncs() {
	a.decls = make(map[*types.Func]*ast.FuncDecl)
	a.sums = make(map[*types.Func]*summary)
	for _, f := range a.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := a.pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			a.decls[fn] = fd
			a.declIdx = append(a.declIdx, fn)
			a.sums[fn] = &summary{}
		}
	}
	sort.Slice(a.declIdx, func(i, j int) bool {
		return a.pkg.Fset.Position(a.decls[a.declIdx[i]].Pos()).Offset <
			a.pkg.Fset.Position(a.decls[a.declIdx[j]].Pos()).Offset
	})
}

// summarize iterates per-function summaries to a fixed point so that
// helper chains (Exchange -> exchangeOne -> ctx.Invoke) fold into the
// top-level method's summary.
func (a *analyzer) summarize() {
	for iter := 0; iter < 10; iter++ {
		changed := false
		for _, fn := range a.declIdx {
			s := a.buildSummary(fn)
			if old := a.sums[fn]; !slices.Equal(s.invokes, old.invokes) || !slices.Equal(s.stores, old.stores) {
				a.sums[fn] = s
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// paramObjects returns a function's declared parameter objects in order
// (receiver excluded).
func paramObjects(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

func recvObject(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[fd.Recv.List[0].Names[0]]
}

// buildSummary computes one function's summary against the current
// summaries of its callees.
func (a *analyzer) buildSummary(fn *types.Func) *summary {
	fd := a.decls[fn]
	params := paramObjects(a.pkg.Info, fd)
	recv := recvObject(a.pkg.Info, fd)
	paramIdx := make(map[types.Object]int, len(params))
	for i, p := range params {
		paramIdx[p] = i
	}
	out := &summary{}

	// refOf maps an expression to an abstract Ref, if it names a Ref
	// parameter or a receiver field.
	refOf := func(e ast.Expr) (sref, bool) {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := a.pkg.Info.Uses[x]; obj != nil {
				if i, ok := paramIdx[obj]; ok {
					return sref{param: i}, true
				}
			}
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && recv != nil && a.pkg.Info.Uses[id] == recv {
				return sref{param: -1, field: x.Sel.Name}, true
			}
		}
		return sref{}, false
	}

	a.walkWithLoops(fd.Body, 1, func(n ast.Node, mult int64) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i := range x.Lhs {
				if i >= len(x.Rhs) {
					break
				}
				lhs, ok := x.Lhs[i].(*ast.SelectorExpr)
				if !ok {
					continue
				}
				id, ok := lhs.X.(*ast.Ident)
				if !ok || recv == nil || a.pkg.Info.Uses[id] != recv {
					continue
				}
				if rid, ok := x.Rhs[i].(*ast.Ident); ok {
					if obj := a.pkg.Info.Uses[rid]; obj != nil && isRefType(obj.Type()) {
						if p, ok := paramIdx[obj]; ok {
							out.stores = append(out.stores, sumStore{field: lhs.Sel.Name, param: p})
						}
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			// ctx.Invoke(ref, "Method", args) — the hosted-method RMI.
			if sel.Sel.Name == "Invoke" && len(x.Args) >= 2 {
				if t := a.pkg.Info.TypeOf(sel.X); t != nil && isCtxType(t) {
					if target, ok := refOf(x.Args[0]); ok {
						if m, ok := a.constStringOf(x.Args[1]); ok {
							out.invokes = append(out.invokes, sumInvoke{target: target, method: m, mult: mult})
						}
					}
				}
				return
			}
			// Same-package helper call: fold its summary through the
			// argument mapping.
			callee, ok := a.pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				// Plain function call f(...) parses as *ast.Ident below.
				return
			}
			a.foldCallee(out, callee, x, recv, sel.X, refOf, mult)
		}
		// Plain function calls helper(...).
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if callee, ok := a.pkg.Info.Uses[id].(*types.Func); ok {
					a.foldCallee(out, callee, call, recv, nil, refOf, mult)
				}
			}
		}
	})
	return out
}

// foldCallee merges a same-package callee's summary into out, mapping
// the callee's parameter refs through the call's arguments and the
// callee's receiver fields through the call's receiver.
func (a *analyzer) foldCallee(out *summary, callee *types.Func, call *ast.CallExpr,
	recv types.Object, callRecv ast.Expr, refOf func(ast.Expr) (sref, bool), mult int64) {
	cs, ok := a.sums[callee]
	if !ok {
		return
	}
	// Is the callee invoked on our own receiver (s.Helper(...))?  Only
	// then do its field refs and stores still mean our fields.
	sameRecv := false
	if callRecv != nil {
		if id, ok := callRecv.(*ast.Ident); ok && recv != nil && a.pkg.Info.Uses[id] == recv {
			sameRecv = true
		}
	}
	mapRef := func(r sref) (sref, bool) {
		if r.param >= 0 {
			if r.param < len(call.Args) {
				return refOfOK(refOf(call.Args[r.param]))
			}
			return sref{}, false
		}
		if sameRecv {
			return r, true
		}
		return sref{}, false
	}
	for _, iv := range cs.invokes {
		if t, ok := mapRef(iv.target); ok {
			out.invokes = append(out.invokes, sumInvoke{target: t, method: iv.method, mult: mult * iv.mult})
		}
	}
	for _, st := range cs.stores {
		if !sameRecv || st.param >= len(call.Args) {
			continue
		}
		if t, ok := refOfOK(refOf(call.Args[st.param])); ok && t.param >= 0 {
			out.stores = append(out.stores, sumStore{field: st.field, param: t.param})
		}
	}
}

func refOfOK(r sref, ok bool) (sref, bool) { return r, ok }

// methodShift returns 1 when the method's first declared parameter is
// the execution context.
func (a *analyzer) methodShift(fd *ast.FuncDecl) int {
	objs := paramObjects(a.pkg.Info, fd)
	if len(objs) > 0 && objs[0] != nil && isCtxType(objs[0].Type()) {
		return 1
	}
	return 0
}

// walkWithLoops traverses a function body calling cb with the product
// of the enclosing loops' trip estimates (the summary-side weight
// model; the entry walker tracks loop variables too and lives in
// entry.go).
func (a *analyzer) walkWithLoops(body *ast.BlockStmt, mult int64, cb func(n ast.Node, mult int64)) {
	var walk func(n ast.Node, mult int64)
	walk = func(n ast.Node, mult int64) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.ForStmt:
				if s.Init != nil {
					walk(s.Init, mult)
				}
				walk(s.Body, mult*a.tripOf(s))
				return false
			case *ast.RangeStmt:
				walk(s.Body, mult*defaultTrip)
				return false
			}
			if x != nil {
				cb(x, mult)
			}
			return true
		})
	}
	walk(body, mult)
}

// tripOf estimates a for-loop's iteration count from a constant bound.
func (a *analyzer) tripOf(st *ast.ForStmt) int64 {
	if cond, ok := st.Cond.(*ast.BinaryExpr); ok {
		if n, ok := a.constIntOf(cond.Y); ok && n > 0 {
			switch cond.Op {
			case token.LSS:
				return n
			case token.LEQ:
				return n + 1
			}
		}
	}
	return defaultTrip
}
