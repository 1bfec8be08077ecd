// Package affinity extracts a static object-to-object invocation
// affinity graph from a workload package's type-checked source — the
// analysis half of the placement oracle (DESIGN.md §14).
//
// The pass walks functions annotated //jsplace:entry, finds object
// creation sites (NewObjectTagged, NewObject, NewObjectNear) and
// invocation sites (SInvoke / AInvoke / OInvoke on objects and
// RemoteRefs, ctx.Invoke through first-order Refs inside hosted
// methods), and accumulates edges weighted by syntactic loop depth:
// an invocation nested in loops with constant bounds contributes the
// product of the bounds; unknown bounds contribute defaultTrip.
// Loops that *distribute* calls over a fleet (the loop variable indexes
// the target) spread the weight across the instances instead of
// multiplying it.
//
// Calls do not stop at the entry function: a small fixed-point over the
// package's call graph summarizes every function and method — which
// Ref-typed parameters and receiver fields it invokes, how often, and
// which parameters it stores into which fields — so a driver invoking
// strip.SInvoke("SetNeighbors", refs[i-1], refs[i+1]) followed by
// strip.AInvoke("Exchange") yields strip(i)→strip(i±1) edges even
// though the neighbor calls happen inside the hosted method.
//
// No golang.org/x/tools: the pass runs on the stdlib type-checker
// output provided by internal/analysis/loader.
package affinity

import (
	"fmt"
	"sort"

	"jsymphony/internal/analysis/affinity/partition"
	"jsymphony/internal/analysis/loader"
	"jsymphony/internal/place"
)

// Instance is one vertex of the affinity graph: a creation site's tag
// plus the instance index within its fanout.  The driver itself is the
// synthetic instance {place.MainSite, 0}.
type Instance struct {
	Site  string `json:"site"`
	Index int    `json:"index"`
}

func (i Instance) String() string { return fmt.Sprintf("%s[%d]", i.Site, i.Index) }

// Site is one object creation site.
type Site struct {
	Tag    string `json:"tag"`
	Class  string `json:"class"`
	Fanout int    `json:"fanout"`
}

// Edge is one undirected accumulated affinity edge.
type Edge struct {
	A, B Instance
	W    int64
}

// Graph is the extracted affinity graph of one workload package.
type Graph struct {
	Workload string // import path of the analyzed package
	Sites    []Site // sorted by tag; the driver vertex is implicit
	Edges    []Edge // canonical order (A before B in vertex order), sorted
}

// The static estimates for bounds the source leaves open.  A creation
// loop without a constant bound or //jsplace:fanout directive is taken
// to make defaultFanout instances; a loop without an evident constant
// bound is taken to run defaultTrip times.
const (
	defaultFanout = 8
	defaultTrip   = 8
)

// Analyze extracts the affinity graph of one loaded package.  A package
// without //jsplace:entry functions yields ok=false.
func Analyze(pkg *loader.Package) (*Graph, bool) {
	a := &analyzer{
		pkg:    pkg,
		sites:  make(map[string]*Site),
		edges:  make(map[[2]Instance]int64),
		fields: make(map[Instance]map[string]Instance),
	}
	a.collectClasses()
	a.collectFuncs()
	a.summarize()
	entries := a.entryFuncs()
	if len(entries) == 0 {
		return nil, false
	}
	// Pass A: creations and bindings; then B1: field stores; then B2:
	// invocation edges.  Separate passes make the result independent of
	// statement order between wiring and use.
	for _, e := range entries {
		a.walkEntry(e, passCreate)
	}
	for _, e := range entries {
		a.walkEntry(e, passStores)
	}
	for _, e := range entries {
		a.walkEntry(e, passEdges)
	}
	return a.graph(), true
}

// graph freezes the accumulated state into canonical form.
func (a *analyzer) graph() *Graph {
	g := &Graph{Workload: a.pkg.ImportPath}
	for _, s := range a.sites {
		g.Sites = append(g.Sites, *s)
	}
	sort.Slice(g.Sites, func(i, j int) bool { return g.Sites[i].Tag < g.Sites[j].Tag })
	order := a.vertexOrder(g)
	for k, w := range a.edges {
		x, y := k[0], k[1]
		if order[x] > order[y] {
			x, y = y, x
		}
		g.Edges = append(g.Edges, Edge{A: x, B: y, W: w})
	}
	// Merge both directions of the same pair.
	merged := make(map[[2]Instance]int64)
	for _, e := range g.Edges {
		merged[[2]Instance{e.A, e.B}] += e.W
	}
	g.Edges = g.Edges[:0]
	for k, w := range merged {
		g.Edges = append(g.Edges, Edge{A: k[0], B: k[1], W: w})
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		ei, ej := g.Edges[i], g.Edges[j]
		if order[ei.A] != order[ej.A] {
			return order[ei.A] < order[ej.A]
		}
		return order[ei.B] < order[ej.B]
	})
	return g
}

// vertexOrder maps every instance to its canonical position: the driver
// first, then site instances in (tag, index) order.
func (a *analyzer) vertexOrder(g *Graph) map[Instance]int {
	order := make(map[Instance]int)
	order[Instance{place.MainSite, 0}] = 0
	n := 1
	for _, s := range g.Sites {
		for i := 0; i < s.Fanout; i++ {
			order[Instance{s.Tag, i}] = n
			n++
		}
	}
	return order
}

// Vertices lists the graph's vertices in canonical order.
func (g *Graph) Vertices() []Instance {
	out := []Instance{{place.MainSite, 0}}
	for _, s := range g.Sites {
		for i := 0; i < s.Fanout; i++ {
			out = append(out, Instance{s.Tag, i})
		}
	}
	return out
}

// BuildHints cuts the graph for a node budget and renders the groups as
// placement hints.  The result is canonical: Encode(BuildHints(g, b))
// is byte-stable for a fixed graph.
func BuildHints(g *Graph, budget int) *place.Hints {
	verts := g.Vertices()
	idx := make(map[Instance]int, len(verts))
	pg := partition.Graph{Vertices: make([]string, len(verts))}
	for i, v := range verts {
		idx[v] = i
		pg.Vertices[i] = v.String()
	}
	for _, e := range g.Edges {
		pg.Edges = append(pg.Edges, partition.Edge{A: idx[e.A], B: idx[e.B], W: e.W})
	}
	groups := partition.Partition(pg, budget)
	h := &place.Hints{Workload: g.Workload, Budget: budget}
	for gi, grp := range groups {
		out := place.Group{ID: gi, Weight: partition.InternalWeight(pg, grp)}
		for _, v := range grp {
			out.Members = append(out.Members, place.Member{Site: verts[v].Site, Index: verts[v].Index})
		}
		h.Groups = append(h.Groups, out)
	}
	h.Normalize()
	return h
}
