package affinity

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"jsymphony/internal/place"
)

// ---------------------------------------------------------------------
// Abstract values: what the entry walker knows about a local variable.

type valKind int

const (
	valNone  valKind = iota
	valInst          // one concrete instance: site[idx]
	valSlice         // slice whose element i is instance site[i]
	valRel           // instance site[loopvar+off], relative to a loop
)

type absval struct {
	kind valKind
	site string
	idx  int          // valInst
	off  int          // valRel
	loop types.Object // valRel: the loop variable the offset is against
}

// loopFrame is one enclosing loop during the walk.
type loopFrame struct {
	v     types.Object // loop variable (nil when opaque)
	trip  int64        // iteration estimate
	exact bool         // trip came from a constant bound
}

type passKind int

const (
	passCreate passKind = iota // creations and variable bindings
	passStores                 // Ref-typed field stores through summaries
	passEdges                  // invocation edges
)

// entryFuncs lists functions whose doc comment carries //jsplace:entry.
func (a *analyzer) entryFuncs() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, fn := range a.declIdx {
		fd := a.decls[fn]
		if fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			if strings.Contains(c.Text, "jsplace:entry") {
				out = append(out, fd)
				break
			}
		}
	}
	return out
}

// env is shared across passes: bindings made in passCreate are read by
// the later passes (types.Object identity is unique package-wide).
func (a *analyzer) env() map[types.Object]absval {
	if a.envm == nil {
		a.envm = make(map[types.Object]absval)
	}
	return a.envm
}

// walkEntry runs one pass over one entry function.
func (a *analyzer) walkEntry(fd *ast.FuncDecl, pass passKind) {
	a.walkStmts(fd.Body.List, nil, pass)
}

// walkStmts walks a statement list under a loop stack, dispatching
// assignments and calls to the pass handlers.
func (a *analyzer) walkStmts(stmts []ast.Stmt, frames []loopFrame, pass passKind) {
	for _, s := range stmts {
		a.walkStmt(s, frames, pass)
	}
}

func (a *analyzer) walkStmt(s ast.Stmt, frames []loopFrame, pass passKind) {
	switch st := s.(type) {
	case *ast.ForStmt:
		frame := a.forFrame(st)
		if st.Init != nil {
			a.walkStmt(st.Init, frames, pass)
		}
		a.walkStmts(st.Body.List, append(frames, frame), pass)
	case *ast.RangeStmt:
		frame, elemBinding := a.rangeFrame(st)
		if elemBinding != nil && pass == passCreate {
			for obj, v := range elemBinding {
				a.env()[obj] = v
			}
		}
		a.walkStmts(st.Body.List, append(frames, frame), pass)
	case *ast.BlockStmt:
		a.walkStmts(st.List, frames, pass)
	case *ast.IfStmt:
		if st.Init != nil {
			a.walkStmt(st.Init, frames, pass)
		}
		a.walkStmts(st.Body.List, frames, pass)
		if st.Else != nil {
			a.walkStmt(st.Else, frames, pass)
		}
	case *ast.SwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				a.walkStmts(cc.Body, frames, pass)
			}
		}
	case *ast.AssignStmt:
		a.handleAssign(st, frames, pass)
	case *ast.DeclStmt:
		// var x = expr declarations.
		if gd, ok := st.Decl.(*ast.GenDecl); ok && pass == passCreate {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if v := a.evalRHS(vs.Values[i], frames, pass); v.kind != valNone {
							a.env()[a.pkg.Info.Defs[name]] = v
						}
					}
				}
			}
		}
		a.scanCalls(st, frames, pass)
	case *ast.ExprStmt:
		a.scanCalls(st, frames, pass)
	case *ast.GoStmt:
		a.scanCalls(st, frames, pass)
	case *ast.DeferStmt:
		a.scanCalls(st, frames, pass)
	case *ast.ReturnStmt:
		a.scanCalls(st, frames, pass)
	default:
		a.scanCalls(s, frames, pass)
	}
}

// scanCalls finds invocation calls nested in arbitrary expressions
// (ExprStmt, if-conditions, return values) and closure bodies.
func (a *analyzer) scanCalls(n ast.Node, frames []loopFrame, pass passKind) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch c := x.(type) {
		case *ast.FuncLit:
			// Closures run with the surrounding loop context (Spawn-per
			// -instance workers); walk their statements normally.
			a.walkStmts(c.Body.List, frames, pass)
			return false
		case *ast.AssignStmt:
			a.handleAssign(c, frames, pass)
			return false
		case *ast.CallExpr:
			a.handleCall(c, frames, pass)
			return true
		}
		return true
	})
}

// forFrame estimates one for-loop's trip count and variable.
func (a *analyzer) forFrame(st *ast.ForStmt) loopFrame {
	f := loopFrame{trip: defaultTrip}
	if init, ok := st.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE && len(init.Lhs) == 1 {
		if id, ok := init.Lhs[0].(*ast.Ident); ok {
			f.v = a.pkg.Info.Defs[id]
		}
	}
	if cond, ok := st.Cond.(*ast.BinaryExpr); ok {
		if n, ok := a.constIntOf(cond.Y); ok && n > 0 {
			switch cond.Op {
			case token.LSS:
				f.trip, f.exact = n, true
			case token.LEQ:
				f.trip, f.exact = n+1, true
			}
		}
	}
	return f
}

// rangeFrame estimates a range loop: ranging over a known fleet slice
// binds the element variable to the per-iteration instance.
func (a *analyzer) rangeFrame(st *ast.RangeStmt) (loopFrame, map[types.Object]absval) {
	f := loopFrame{trip: defaultTrip}
	var keyObj types.Object
	if id, ok := st.Key.(*ast.Ident); ok && id.Name != "_" {
		keyObj = a.pkg.Info.Defs[id]
		f.v = keyObj
	}
	base := a.resolveExpr(st.X, nil)
	if base.kind != valSlice {
		return f, nil
	}
	if s, ok := a.sites[base.site]; ok {
		f.trip, f.exact = int64(s.Fanout), true
	}
	binding := make(map[types.Object]absval)
	if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" && keyObj != nil {
		binding[a.pkg.Info.Defs[id]] = absval{kind: valRel, site: base.site, loop: keyObj}
	}
	return f, binding
}

// ---------------------------------------------------------------------
// Assignments: creations and value bindings (passCreate), plus call
// scanning for the later passes.

func (a *analyzer) handleAssign(st *ast.AssignStmt, frames []loopFrame, pass passKind) {
	// Calls on the RHS still carry invocation edges (h, _ := o.AInvoke).
	for _, r := range st.Rhs {
		ast.Inspect(r, func(x ast.Node) bool {
			if c, ok := x.(*ast.CallExpr); ok {
				a.handleCall(c, frames, pass)
			}
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			return true
		})
	}
	if pass != passCreate {
		return
	}
	// Pair LHS with RHS; a multi-value call pairs with its first result.
	pairs := len(st.Lhs)
	if len(st.Rhs) == 1 && pairs > 1 {
		pairs = 1
	}
	for i := 0; i < pairs; i++ {
		v := a.evalRHS(st.Rhs[min(i, len(st.Rhs)-1)], frames, pass)
		if v.kind == valNone {
			continue
		}
		a.bindLHS(st.Lhs[i], v, frames)
	}
}

// bindLHS records what a variable or fleet-slice element now holds.
func (a *analyzer) bindLHS(lhs ast.Expr, v absval, frames []loopFrame) {
	switch x := lhs.(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := a.pkg.Info.Defs[x]
		if obj == nil {
			obj = a.pkg.Info.Uses[x]
		}
		if obj != nil {
			a.env()[obj] = v
		}
	case *ast.IndexExpr:
		// objs[i] = <instance rel to i>  =>  objs is the fleet slice.
		base, ok := x.X.(*ast.Ident)
		if !ok {
			return
		}
		iv := a.indexVal(x.Index, frames, v.site)
		if (v.kind == valRel && iv.kind == valRel && iv.off == 0 && iv.loop == v.loop && v.off == 0) ||
			(v.kind == valInst && iv.kind == valInst && iv.idx == v.idx) {
			obj := a.pkg.Info.Uses[base]
			if obj == nil {
				obj = a.pkg.Info.Defs[base]
			}
			if obj != nil {
				a.env()[obj] = absval{kind: valSlice, site: v.site}
			}
		}
	}
}

// evalRHS computes the abstract value of a right-hand side, registering
// creation sites as it encounters them.
func (a *analyzer) evalRHS(e ast.Expr, frames []loopFrame, pass passKind) absval {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return a.resolveExpr(e, frames)
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return absval{}
	}
	recvT := a.pkg.Info.TypeOf(sel.X)
	switch {
	case recvT != nil && isJSSession(recvT):
		switch sel.Sel.Name {
		case "NewObjectTagged":
			return a.registerTagged(call, frames)
		case "NewObject", "NewObjectNear", "Load":
			return a.registerAnon(call, frames)
		case "Wrap":
			if len(call.Args) == 1 {
				return a.resolveExpr(call.Args[0], frames)
			}
		}
	case recvT != nil && isObjectHandle(recvT):
		if sel.Sel.Name == "Ref" || sel.Sel.Name == "With" {
			return a.resolveExpr(sel.X, frames)
		}
	}
	return absval{}
}

// registerTagged processes js.NewObjectTagged(site, idx, class, ...).
func (a *analyzer) registerTagged(call *ast.CallExpr, frames []loopFrame) absval {
	if len(call.Args) < 3 {
		return absval{}
	}
	tag, ok := a.constStringOf(call.Args[0])
	if !ok {
		return absval{}
	}
	class, _ := a.constStringOf(call.Args[2])
	if n, ok := a.constIntOf(call.Args[1]); ok {
		a.ensureSite(tag, class, int(n)+1, call.Pos())
		return absval{kind: valInst, site: tag, idx: int(n)}
	}
	// Loop-variable index: the site fans out.
	if id, ok := call.Args[1].(*ast.Ident); ok {
		if obj := a.pkg.Info.Uses[id]; obj != nil {
			if fr, ok := frameOf(frames, obj); ok {
				fanout := a.creationFanout(call.Pos(), fr)
				a.ensureSite(tag, class, fanout, call.Pos())
				return absval{kind: valRel, site: tag, loop: obj}
			}
		}
	}
	a.ensureSite(tag, class, defaultFanout, call.Pos())
	return absval{}
}

// registerAnon gives an untagged creation site a synthetic tag so it
// still appears in the graph (hints cannot route it, but its traffic
// shapes the partition of everything else).
func (a *analyzer) registerAnon(call *ast.CallExpr, frames []loopFrame) absval {
	if len(call.Args) < 1 {
		return absval{}
	}
	class, _ := a.constStringOf(call.Args[0])
	pos := a.pkg.Fset.Position(call.Pos())
	tag := "@" + baseName(pos.Filename) + ":" + strconv.Itoa(pos.Line)
	if fr := innermost(frames); fr != nil && fr.v != nil {
		fanout := a.creationFanout(call.Pos(), *fr)
		a.ensureSite(tag, class, fanout, call.Pos())
		return absval{kind: valRel, site: tag, loop: fr.v}
	}
	a.ensureSite(tag, class, 1, call.Pos())
	return absval{kind: valInst, site: tag, idx: 0}
}

func baseName(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

func innermost(frames []loopFrame) *loopFrame {
	if len(frames) == 0 {
		return nil
	}
	return &frames[len(frames)-1]
}

func frameOf(frames []loopFrame, v types.Object) (loopFrame, bool) {
	for i := len(frames) - 1; i >= 0; i-- {
		if frames[i].v == v {
			return frames[i], true
		}
	}
	return loopFrame{}, false
}

// creationFanout resolves a fleet site's instance count: an explicit
// //jsplace:fanout directive wins, then a constant loop bound, then the
// default.
func (a *analyzer) creationFanout(pos token.Pos, fr loopFrame) int {
	if n, ok := a.fanoutDirective(pos); ok {
		return n
	}
	if fr.exact && fr.trip > 0 {
		return int(fr.trip)
	}
	return defaultFanout
}

func (a *analyzer) ensureSite(tag, class string, fanout int, pos token.Pos) {
	s, ok := a.sites[tag]
	if !ok {
		a.sites[tag] = &Site{Tag: tag, Class: class, Fanout: fanout}
		return
	}
	if fanout > s.Fanout {
		s.Fanout = fanout
	}
	if s.Class == "" {
		s.Class = class
	}
}

// fanoutDirective finds //jsplace:fanout N on the creation's line or
// the line above it.
func (a *analyzer) fanoutDirective(pos token.Pos) (int, bool) {
	p := a.pkg.Fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		if txt, ok := a.commentAt(p.Filename, line); ok {
			if n, ok := parseFanout(txt); ok {
				return n, true
			}
		}
	}
	return 0, false
}

func parseFanout(txt string) (int, bool) {
	i := strings.Index(txt, "jsplace:fanout")
	if i < 0 {
		return 0, false
	}
	rest := strings.TrimSpace(txt[i+len("jsplace:fanout"):])
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// commentAt returns the comment text ending on a given file line.
func (a *analyzer) commentAt(file string, line int) (string, bool) {
	if a.comments == nil {
		a.comments = make(map[string]map[int]string)
		for _, f := range a.pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					p := a.pkg.Fset.Position(c.End())
					m := a.comments[p.Filename]
					if m == nil {
						m = make(map[int]string)
						a.comments[p.Filename] = m
					}
					m[p.Line] = c.Text
				}
			}
		}
	}
	m, ok := a.comments[file]
	if !ok {
		return "", false
	}
	txt, ok := m[line]
	return txt, ok
}

// ---------------------------------------------------------------------
// Expression resolution.

// resolveExpr maps an expression to its abstract value.
func (a *analyzer) resolveExpr(e ast.Expr, frames []loopFrame) absval {
	switch x := e.(type) {
	case *ast.Ident:
		obj := a.pkg.Info.Uses[x]
		if obj == nil {
			obj = a.pkg.Info.Defs[x]
		}
		if obj != nil {
			if v, ok := a.env()[obj]; ok {
				return v
			}
		}
	case *ast.IndexExpr:
		base := a.resolveExpr(x.X, frames)
		if base.kind == valSlice {
			return a.indexVal(x.Index, frames, base.site)
		}
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			recvT := a.pkg.Info.TypeOf(sel.X)
			if recvT != nil && isObjectHandle(recvT) && (sel.Sel.Name == "Ref" || sel.Sel.Name == "With") {
				return a.resolveExpr(sel.X, frames)
			}
			if recvT != nil && isJSSession(recvT) && sel.Sel.Name == "Wrap" && len(x.Args) == 1 {
				return a.resolveExpr(x.Args[0], frames)
			}
		}
	case *ast.ParenExpr:
		return a.resolveExpr(x.X, frames)
	}
	return absval{}
}

// indexVal interprets a fleet-slice index expression.
func (a *analyzer) indexVal(idx ast.Expr, frames []loopFrame, site string) absval {
	if n, ok := a.constIntOf(idx); ok {
		return absval{kind: valInst, site: site, idx: int(n)}
	}
	switch x := idx.(type) {
	case *ast.Ident:
		if obj := a.pkg.Info.Uses[x]; obj != nil {
			if _, ok := frameOf(frames, obj); ok {
				return absval{kind: valRel, site: site, loop: obj}
			}
		}
	case *ast.BinaryExpr:
		id, ok := x.X.(*ast.Ident)
		if !ok {
			return absval{}
		}
		obj := a.pkg.Info.Uses[id]
		if obj == nil {
			return absval{}
		}
		if _, ok := frameOf(frames, obj); !ok {
			return absval{}
		}
		c, ok := a.constIntOf(x.Y)
		if !ok {
			return absval{}
		}
		switch x.Op {
		case token.ADD:
			return absval{kind: valRel, site: site, off: int(c), loop: obj}
		case token.SUB:
			return absval{kind: valRel, site: site, off: -int(c), loop: obj}
		}
	}
	return absval{}
}

// ---------------------------------------------------------------------
// Invocations.

// resolved is one concrete instance an abstract value denotes under the
// current loop context, with the weight its invocations carry.
type resolved struct {
	inst Instance
	w    int64
}

// handleCall processes X.SInvoke/AInvoke/OInvoke(method, args...) at
// the entry level.
func (a *analyzer) handleCall(call *ast.CallExpr, frames []loopFrame, pass passKind) {
	if pass == passCreate {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) < 1 {
		return
	}
	switch sel.Sel.Name {
	case "SInvoke", "AInvoke", "OInvoke":
	default:
		return
	}
	recvT := a.pkg.Info.TypeOf(sel.X)
	if recvT == nil || !isObjectHandle(recvT) {
		return
	}
	method, ok := a.constStringOf(call.Args[0])
	if !ok {
		return
	}
	target := a.resolveExpr(sel.X, frames)
	if target.kind == valNone || target.kind == valSlice {
		return
	}
	args := call.Args[1:]
	for _, r := range a.enumerate(target, frames) {
		if pass == passStores {
			a.applyStores(r.inst, method, args, target, frames)
			continue
		}
		// Direct edge: the driver talks to the instance.
		a.addEdge(Instance{place.MainSite, 0}, r.inst, r.w)
		a.applyInvokes(r.inst, method, args, target, frames, r.w)
	}
}

// enumerate expands an abstract target into concrete instances with
// their per-instance weight: a relative target distributes over the
// fleet (the distributing loop does not multiply), a concrete one is
// multiplied by every enclosing loop.
func (a *analyzer) enumerate(v absval, frames []loopFrame) []resolved {
	switch v.kind {
	case valInst:
		w := int64(1)
		for _, f := range frames {
			w *= f.trip
		}
		if !a.instOK(Instance{v.site, v.idx}) {
			return nil
		}
		return []resolved{{inst: Instance{v.site, v.idx}, w: w}}
	case valRel:
		s, ok := a.sites[v.site]
		if !ok {
			return nil
		}
		w := int64(1)
		found := false
		for _, f := range frames {
			if !found && f.v != nil && f.v == v.loop {
				found = true // the distributing loop spreads, not multiplies
				continue
			}
			w *= f.trip
		}
		if !found {
			// The relative value escaped its loop; treat conservatively
			// as one call per instance.
		}
		var out []resolved
		for i := 0; i < s.Fanout; i++ {
			t := i + v.off
			if t < 0 || t >= s.Fanout {
				continue
			}
			out = append(out, resolved{inst: Instance{v.site, t}, w: w})
		}
		return out
	}
	return nil
}

func (a *analyzer) instOK(i Instance) bool {
	if i.Site == place.MainSite {
		return i.Index == 0
	}
	s, ok := a.sites[i.Site]
	return ok && i.Index >= 0 && i.Index < s.Fanout
}

// resolveArgFor resolves a caller argument to a concrete instance from
// the point of view of one target instance: offsets relative to the
// same distributing loop shift with the target.
func (a *analyzer) resolveArgFor(arg absval, target absval, inst Instance) (Instance, bool) {
	switch arg.kind {
	case valInst:
		out := Instance{arg.site, arg.idx}
		return out, a.instOK(out)
	case valRel:
		if target.kind == valRel && arg.loop == target.loop {
			out := Instance{arg.site, inst.Index - target.off + arg.off}
			return out, a.instOK(out)
		}
	}
	return Instance{}, false
}

// methodSummary finds the summary and caller-arg shift for a method of
// the class hosted at a site.
func (a *analyzer) methodSummary(site, method string) (*summary, int) {
	s, ok := a.sites[site]
	if !ok || s.Class == "" {
		return nil, 0
	}
	named := a.classType(s.Class)
	if named == nil {
		return nil, 0
	}
	fn, ok := a.methods[named][method]
	if !ok {
		return nil, 0
	}
	fd, ok := a.decls[fn]
	if !ok {
		return nil, 0
	}
	return a.sums[fn], a.methodShift(fd)
}

// applyStores records Ref-typed field stores for one target instance.
func (a *analyzer) applyStores(inst Instance, method string, args []ast.Expr, target absval, frames []loopFrame) {
	sum, shift := a.methodSummary(inst.Site, method)
	if sum == nil {
		return
	}
	for _, st := range sum.stores {
		pos := st.param - shift
		if pos < 0 || pos >= len(args) {
			continue
		}
		av := a.resolveExpr(args[pos], frames)
		ref, ok := a.resolveArgFor(av, target, inst)
		if !ok {
			continue
		}
		m := a.fields[inst]
		if m == nil {
			m = make(map[string]Instance)
			a.fields[inst] = m
		}
		m[st.field] = ref
	}
}

// applyInvokes adds the edges a hosted method's summary implies for one
// target instance.
func (a *analyzer) applyInvokes(inst Instance, method string, args []ast.Expr, target absval, frames []loopFrame, w int64) {
	sum, shift := a.methodSummary(inst.Site, method)
	if sum == nil {
		return
	}
	for _, iv := range sum.invokes {
		var ref Instance
		var ok bool
		if iv.target.param >= 0 {
			pos := iv.target.param - shift
			if pos < 0 || pos >= len(args) {
				continue
			}
			av := a.resolveExpr(args[pos], frames)
			ref, ok = a.resolveArgFor(av, target, inst)
		} else {
			ref, ok = a.fields[inst][iv.target.field]
		}
		if !ok || ref == inst {
			continue
		}
		a.addEdge(inst, ref, w*iv.mult)
	}
}

func (a *analyzer) addEdge(from, to Instance, w int64) {
	if w <= 0 || from == to {
		return
	}
	a.edges[[2]Instance{from, to}] += w
}
