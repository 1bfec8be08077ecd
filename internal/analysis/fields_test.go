package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"jsymphony/internal/analysis/loader"
)

// fieldAudit collects, for every struct field declared in the audited
// files, whether some file of pkgs reads it and whether one sets it.
// Fields are keyed "pkg.Type.field" (a field of an anonymous struct
// type takes the key of the field or declaration that holds it), so a
// use from another package, which the loader resolves through export
// data to a different *types.Var, finds the same key.
type fieldAudit struct {
	byVar    map[*types.Var]string // declared fields of source packages
	known    map[string]bool       // keys of byVar
	declared map[string]bool       // audited fields
	read     map[string]bool
	set      map[string]bool
	via      map[string][]string // field -> fields it is set from verbatim
}

// orphanFields returns, sorted, the fields declared in the files whose
// names declares accepts that nothing in pkgs reads (unread) or sets
// (unset).
//
// A write is an assignment, ++/--, op= or range target, a composite
// literal element, x.f[i] = v, delete(x.f, k), x.f = append(x.f, ...),
// x.f.g = v for a struct-valued f, &x.f, slicing an array field, or a
// pointer-method call on the field.  The last three count as reads as
// well; every other use is a read.  A write whose value is itself a
// field, as in Opt: o.Opt, sets its target only when that field is set.
// Equality reads every field a struct holds by value: one used as a map
// or sync.Map key, or compared with == or !=.  encoding/json reads every
// field of a struct with a json tag and of each type it reaches, and
// sets every field of what json.Unmarshal or Decoder.Decode fills.
func orphanFields(pkgs []*loader.Package, declares func(name string) bool) (unread, unset []string) {
	a := &fieldAudit{
		byVar:    make(map[*types.Var]string),
		known:    make(map[string]bool),
		declared: make(map[string]bool),
		read:     make(map[string]bool),
		set:      make(map[string]bool),
		via:      make(map[string][]string),
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			a.declare(p, f, declares(p.Fset.File(f.Pos()).Name()))
		}
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			a.uses(p, f)
		}
	}
	for changed := true; changed; {
		changed = false
		for dst, srcs := range a.via {
			for _, src := range srcs {
				if a.set[src] && !a.set[dst] {
					a.set[dst], changed = true, true
				}
			}
		}
	}
	for key := range a.declared {
		if !a.read[key] {
			unread = append(unread, key)
		}
		if !a.set[key] {
			unset = append(unset, key)
		}
	}
	sort.Strings(unread)
	sort.Strings(unset)
	return unread, unset
}

// declare keys the fields of every struct type that f spells out, and
// marks those of the audited files.
func (a *fieldAudit) declare(p *loader.Package, f *ast.File, audited bool) {
	for _, d := range f.Decls {
		outer := strings.TrimPrefix(p.ImportPath, "jsymphony/") + "." + declName(d)
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				// type T struct{...}; type U T declares no fields.
				if _, ok := n.Type.(*ast.StructType); ok {
					tn := p.Info.Defs[n.Name].(*types.TypeName)
					a.declareType(tn.Type().Underlying(), typeKey(tn.Type()), audited)
				}
			case *ast.StructType:
				// A struct type no type declaration holds: a variable's
				// or a literal's, named after the declaration around it.
				if st, ok := p.Info.TypeOf(n).(*types.Struct); ok && a.ownerOf(st) == "" {
					a.declareType(st, outer, audited)
				}
			}
			return true
		})
	}
}

// declareType keys the fields of every struct that t spells out,
// owner being the key of what holds t.
func (a *fieldAudit) declareType(t types.Type, owner string, audited bool) {
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if f.Name() == "_" {
				continue
			}
			key := owner + "." + f.Name()
			a.byVar[f] = key
			a.known[key] = true
			if audited {
				a.declared[key] = true
			}
			a.declareType(f.Type(), key, audited)
		}
	case *types.Pointer:
		a.declareType(t.Elem(), owner, audited)
	case *types.Slice:
		a.declareType(t.Elem(), owner, audited)
	case *types.Array:
		a.declareType(t.Elem(), owner, audited)
	case *types.Map:
		a.declareType(t.Elem(), owner, audited)
	}
}

// declName names a top-level declaration the way funcKey names
// functions, after the package.
func declName(d ast.Decl) string {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil && len(d.Recv.List) == 1 {
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if ix, ok := recv.(*ast.IndexExpr); ok {
				recv = ix.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				return id.Name + "." + d.Name.Name
			}
		}
		return d.Name.Name
	case *ast.GenDecl:
		for _, s := range d.Specs {
			if vs, ok := s.(*ast.ValueSpec); ok && len(vs.Names) > 0 {
				return vs.Names[0].Name
			}
		}
	}
	return ""
}

// typeKey is "pkg.Type" for a named type or a pointer to one, with the
// module prefix trimmed; "" for any other type.  A generic instance is
// named after its origin.
func typeKey(t types.Type) string {
	named, ok := types.Unalias(deref(types.Unalias(t))).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return strings.TrimPrefix(named.Obj().Pkg().Path(), "jsymphony/") + "." + named.Obj().Name()
}

// fieldKey keys field f of a struct whose holder's key is owner.
func (a *fieldAudit) fieldKey(f *types.Var, owner string) string {
	if key, ok := a.byVar[f.Origin()]; ok {
		return key
	}
	if owner == "" {
		return ""
	}
	return owner + "." + f.Name()
}

// access is what one use of a field does to it.
type access struct{ read, write bool }

var (
	reads      = access{read: true}
	writes     = access{write: true}
	readWrites = access{true, true}
)

// uses records every field selection and composite-literal element of f.
func (a *fieldAudit) uses(p *loader.Package, f *ast.File) {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel := p.Info.Selections[n]
			if sel == nil || sel.Kind() == types.MethodExpr {
				return true
			}
			keys := a.pathKeys(p, n, sel)
			acc := reads
			switch {
			case sel.Kind() == types.FieldVal:
				acc = a.context(p, parents, n)
			case ptrMethod(sel.Obj()):
				acc = readWrites
			}
			for i, key := range keys {
				if i == len(keys)-1 && sel.Kind() == types.FieldVal {
					a.record(key, acc, a.source(p, parents, n))
					continue
				}
				// an embedded field the selection passes through
				a.record(key, a.through(acc, sel, i), nil)
			}
		case *ast.CompositeLit:
			st, ok := types.Unalias(p.Info.TypeOf(n)).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			owner := typeKey(p.Info.TypeOf(n))
			for i, e := range n.Elts {
				field, value := (*types.Var)(nil), e
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					field, _ = p.Info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
					value = kv.Value
				} else if i < st.NumFields() {
					field = st.Field(i)
				}
				if field != nil {
					a.record(a.fieldKey(field, owner), writes, a.valueSource(p, value))
				}
			}
		case *ast.MapType:
			a.markAll(p.Info.TypeOf(n.Key), reads, false)
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				a.markAll(p.Info.TypeOf(n.X), reads, false)
			}
		case *ast.StructType:
			st, _ := p.Info.TypeOf(n).(*types.Struct)
			for i := 0; st != nil && i < st.NumFields(); i++ {
				if strings.Contains(st.Tag(i), `json:"`) {
					a.markAll(st, reads, true)
					break
				}
			}
		case *ast.CallExpr:
			fn, _ := callee(p, n).(*types.Func)
			if fn == nil || len(n.Args) == 0 {
				return true
			}
			switch name := fn.FullName(); {
			case name == "encoding/json.Unmarshal" && len(n.Args) == 2:
				a.markAll(p.Info.TypeOf(n.Args[1]), writes, true)
			case name == "(*encoding/json.Decoder).Decode":
				a.markAll(p.Info.TypeOf(n.Args[0]), writes, true)
			case strings.HasPrefix(name, "(*sync.Map)."):
				a.markAll(p.Info.TypeOf(n.Args[0]), reads, false) // the key, compared by ==
			}
		}
		return true
	})
}

// callee is the function or method that call names, nil for a call
// of a function value or a conversion.
func callee(p *loader.Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

// ownerOf is the key of what holds a declared struct type, "" for one
// not declared in pkgs.
func (a *fieldAudit) ownerOf(st *types.Struct) string {
	for i := 0; i < st.NumFields(); i++ {
		if key, ok := a.byVar[st.Field(i)]; ok {
			return key[:strings.LastIndexByte(key, '.')]
		}
	}
	return ""
}

// record notes one access of key.  A write whose value is the field
// src sets key only once src is set.
func (a *fieldAudit) record(key string, acc access, src *string) {
	if key == "" {
		return
	}
	if acc.read {
		a.read[key] = true
	}
	if acc.write {
		if src != nil {
			a.via[key] = append(a.via[key], *src)
		} else {
			a.set[key] = true
		}
	}
}

// markAll records acc on every field of every struct that t holds by
// value, or, when deep, reaches through pointers, slices and maps too:
// equality reads the fields of a map key or of an operand of ==, and
// encoding/json reads those of a document it encodes and sets those of
// one it decodes.
func (a *fieldAudit) markAll(t types.Type, acc access, deep bool) {
	seen := make(map[types.Type]bool)
	var walk func(t types.Type, owner string)
	walk = func(t types.Type, owner string) {
		t = types.Unalias(t)
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named:
			walk(u.Underlying(), typeKey(u))
		case *types.Struct:
			if owner == "" {
				owner = a.ownerOf(u)
			}
			for i := 0; i < u.NumFields(); i++ {
				key := a.fieldKey(u.Field(i), owner)
				a.record(key, acc, nil)
				walk(u.Field(i).Type(), key)
			}
		case *types.Array:
			walk(u.Elem(), owner)
		case *types.Pointer:
			if deep {
				walk(u.Elem(), owner)
			}
		case *types.Slice:
			if deep {
				walk(u.Elem(), owner)
			}
		case *types.Map:
			if deep {
				walk(u.Key(), owner)
				walk(u.Elem(), owner)
			}
		}
	}
	walk(t, "")
}

// pathKeys keys the fields a selection passes through: for a field
// selection the embedded fields and the field itself, for a method
// the embedded fields only.
func (a *fieldAudit) pathKeys(p *loader.Package, n *ast.SelectorExpr, sel *types.Selection) []string {
	path := sel.Index()
	if sel.Kind() == types.MethodVal {
		path = path[:len(path)-1]
	}
	t := sel.Recv()
	owner := typeKey(t)
	if owner == "" {
		owner = a.exprKey(p, n.X)
	}
	var keys []string
	for _, idx := range path {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return keys
		}
		f := st.Field(idx)
		key := a.fieldKey(f, owner)
		keys = append(keys, key)
		t = f.Type()
		if owner = typeKey(t); owner == "" {
			owner = key
		}
	}
	return keys
}

// exprKey is the key of the field that e selects, seen through
// parentheses, indexing and dereference; "" when e selects none.
func (a *fieldAudit) exprKey(p *loader.Package, e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := p.Info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return ""
			}
			keys := a.pathKeys(p, x, sel)
			if len(keys) == 0 {
				return ""
			}
			return keys[len(keys)-1]
		default:
			return ""
		}
	}
}

// valueSource is, for a value that is itself a selection of a field
// declared in pkgs, that field's key: the value passes the field
// through.
func (a *fieldAudit) valueSource(p *loader.Package, e ast.Expr) *string {
	e = ast.Unparen(e)
	if key := a.exprKey(p, e); a.known[key] {
		if _, ok := e.(*ast.SelectorExpr); ok {
			return &key
		}
	}
	return nil
}

// source is the field a write at n passes through, when n is the one
// target of a plain assignment.
func (a *fieldAudit) source(p *loader.Package, parents map[ast.Node]ast.Node, n ast.Expr) *string {
	as, ok := parents[n].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	for i, lhs := range as.Lhs {
		if lhs == n {
			return a.valueSource(p, as.Rhs[i])
		}
	}
	return nil
}

// context is what the expression n, a field selection, does to its
// field, judged from the expressions around it.
func (a *fieldAudit) context(p *loader.Package, parents map[ast.Node]ast.Node, n ast.Expr) access {
	switch parent := parents[n].(type) {
	case *ast.ParenExpr:
		return a.context(p, parents, parent)
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			if lhs == n {
				return writes
			}
		}
	case *ast.IncDecStmt:
		return writes
	case *ast.RangeStmt:
		if parent.Key == n || parent.Value == n {
			return writes
		}
	case *ast.UnaryExpr:
		if parent.Op == token.AND {
			return readWrites
		}
	case *ast.IndexExpr:
		if parent.X == n && a.context(p, parents, parent) == writes {
			return writes
		}
	case *ast.SliceExpr:
		if _, ok := types.Unalias(p.Info.TypeOf(n)).Underlying().(*types.Array); ok && parent.X == n {
			return readWrites
		}
	case *ast.SelectorExpr:
		// x.f.g: f is written with g when it holds g's struct by value.
		sel := p.Info.Selections[parent]
		if _, isPtr := types.Unalias(p.Info.TypeOf(n)).Underlying().(*types.Pointer); isPtr || sel == nil {
			return reads
		}
		if sel.Kind() == types.MethodVal {
			if ptrMethod(sel.Obj()) {
				return readWrites
			}
			return reads
		}
		return a.context(p, parents, parent)
	case *ast.CallExpr:
		if len(parent.Args) == 0 || parent.Args[0] != n {
			return reads
		}
		switch builtinName(p, parent.Fun) {
		case "delete", "clear":
			return writes
		case "append":
			// x.f = append(x.f, ...) only grows f.
			if as, ok := parents[parent].(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 && as.Rhs[0] == parent &&
				a.exprKey(p, as.Lhs[0]) != "" && a.exprKey(p, as.Lhs[0]) == a.exprKey(p, n) {
				return writes
			}
		}
	}
	return reads
}

// through is what a selection does to the i'th embedded field on its
// path: a field held by value shares what happens to the selection,
// a field held by pointer is only read.
func (a *fieldAudit) through(acc access, sel *types.Selection, i int) access {
	t := sel.Recv()
	for _, idx := range sel.Index()[:i] {
		t = deref(t).Underlying().(*types.Struct).Field(idx).Type()
	}
	f := deref(t).Underlying().(*types.Struct).Field(sel.Index()[i])
	if _, isPtr := types.Unalias(f.Type()).Underlying().(*types.Pointer); isPtr {
		return reads
	}
	return acc
}

// ptrMethod reports whether obj is a method with a pointer receiver.
func ptrMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	_, isPtr := recv.Type().(*types.Pointer)
	return isPtr
}

// builtinName is the name of the builtin that fun calls, "" for any
// other callee.
func builtinName(p *loader.Package, fun ast.Expr) string {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// TestSurfaceFieldsResolve runs the field check over a fixture whose
// every false-positive class (a map key, a generic field, a JSON
// document and a type it reaches, a mutex held as a field and one
// embedded, an atomic, &x.f, slicing an array, index assignment) is
// read and set, and whose findings are a
// field only ever added to, a field set only by a composite-literal key,
// a never-set option and its pass-through into another package.
func TestSurfaceFieldsResolve(t *testing.T) {
	pkgs, err := loader.Load("testdata", "./fields/...")
	if err != nil {
		t.Fatal(err)
	}
	unread, unset := orphanFields(pkgs, func(string) bool { return true })
	if want := []string{"fixtures/fields.Tape.Label", "fixtures/fields.Tape.written"}; strings.Join(unread, " ") != strings.Join(want, " ") {
		t.Errorf("unread = %v, want %v", unread, want)
	}
	if want := []string{"fixtures/fields.EnvOptions.Cost", "fixtures/fields/core.Options.Cost"}; strings.Join(unset, " ") != strings.Join(want, " ") {
		t.Errorf("unset = %v, want %v", unset, want)
	}
}
