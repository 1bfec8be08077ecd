package virtarch

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"jsymphony/internal/params"
)

// fakeAlloc hands out nodes from a fixed pool, honoring name pinning,
// exclusion, and a per-node snapshot for constraints.
type fakeAlloc struct {
	pool     []string
	snaps    map[string]params.Snapshot
	reserved map[string]int
	freed    []string
}

func newFakeAlloc(n int) *fakeAlloc {
	a := &fakeAlloc{snaps: map[string]params.Snapshot{}, reserved: map[string]int{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%02d", i)
		a.pool = append(a.pool, name)
		snap := params.NewSnapshot()
		snap.SetText(params.NodeName, name)
		snap.SetFloat(params.Idle, float64(100-i))
		a.snaps[name] = snap
	}
	return a
}

func (a *fakeAlloc) Alloc(n int, name string, constr *params.Constraints, exclude []string) ([]string, error) {
	ex := map[string]bool{}
	for _, e := range exclude {
		ex[e] = true
	}
	var out []string
	for _, cand := range a.pool {
		if len(out) == n {
			break
		}
		if ex[cand] || (name != "" && cand != name) {
			continue
		}
		if !constr.Eval(a.snaps[cand]) {
			continue
		}
		if a.reserved[cand] > 0 {
			continue // keep allocations distinct for tests
		}
		out = append(out, cand)
	}
	if len(out) < n {
		return nil, fmt.Errorf("fake: only %d of %d available", len(out), n)
	}
	for _, nm := range out {
		a.reserved[nm]++
	}
	return out, nil
}

func (a *fakeAlloc) Free(nodes []string) {
	for _, n := range nodes {
		a.freed = append(a.freed, n)
		if a.reserved[n] > 0 {
			a.reserved[n]--
		}
	}
}

func TestNewNodeAndNamedNode(t *testing.T) {
	a := newFakeAlloc(5)
	n1, err := NewNode(a, nil)
	if err != nil || n1.Name() != "n00" {
		t.Fatalf("NewNode = %v, %v", n1, err)
	}
	n2, err := NewNamedNode(a, "n03")
	if err != nil || n2.Name() != "n03" {
		t.Fatalf("NewNamedNode = %v, %v", n2, err)
	}
	if _, err := NewNamedNode(a, "ghost"); err == nil {
		t.Fatal("NewNamedNode(ghost) succeeded")
	}
	constr := params.NewConstraints().MustSet(params.Idle, "<=", 97)
	n3, err := NewNode(a, constr)
	if err != nil {
		t.Fatal(err)
	}
	if n3.Name() == "n00" || n3.Name() == "n01" || n3.Name() == "n02" {
		t.Fatalf("constraint ignored: got %s", n3.Name())
	}
}

func TestNodeImplicitTriple(t *testing.T) {
	a := newFakeAlloc(3)
	n, _ := NewNode(a, nil)
	c := n.Cluster()
	if c == nil || c.NrNodes() != 1 {
		t.Fatalf("implicit cluster wrong: %v", c)
	}
	if n.Cluster() != c {
		t.Fatal("implicit cluster not stable")
	}
	s := n.Site()
	if s == nil || s.NrClusters() != 1 || s.NrNodes() != 1 {
		t.Fatalf("implicit site wrong")
	}
	d := n.Domain()
	if d == nil || d.NrSites() != 1 || d.NrNodes() != 1 {
		t.Fatalf("implicit domain wrong")
	}
	// Same triple every time (unique (cluster, site, domain)).
	if n.Site() != s || n.Domain() != d {
		t.Fatal("triple not unique")
	}
}

func TestNodeFree(t *testing.T) {
	a := newFakeAlloc(3)
	n, _ := NewNode(a, nil)
	c := n.Cluster()
	n.Free()
	if !n.Freed() || c.NrNodes() != 0 {
		t.Fatalf("free: freed=%v cluster=%d", n.Freed(), c.NrNodes())
	}
	if len(a.freed) != 1 || a.freed[0] != "n00" {
		t.Fatalf("allocator not told: %v", a.freed)
	}
	n.Free() // idempotent
	if len(a.freed) != 1 {
		t.Fatal("double free reached allocator")
	}
	if names := n.NodeNames(); names != nil {
		t.Fatalf("freed node still has names: %v", names)
	}
}

func TestClusterAllocation(t *testing.T) {
	a := newFakeAlloc(8)
	c, err := NewCluster(a, 5, nil)
	if err != nil || c.NrNodes() != 5 {
		t.Fatalf("NewCluster = %d nodes, %v", c.NrNodes(), err)
	}
	// Node numbering 0..nrNodes-1.
	for i := 0; i < 5; i++ {
		n, err := c.Node(i)
		if err != nil {
			t.Fatalf("Node(%d): %v", i, err)
		}
		if n.Cluster() != c {
			t.Fatal("member's cluster backref wrong")
		}
	}
	if _, err := c.Node(5); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := c.Node(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := NewCluster(a, 10, nil); err == nil {
		t.Fatal("oversized cluster allocated")
	}
}

func TestClusterAddAndFreeNode(t *testing.T) {
	a := newFakeAlloc(6)
	n1, _ := NewNode(a, nil)
	n2, _ := NewNode(a, nil)
	n3, _ := NewNode(a, nil)
	c := NewEmptyCluster(a)
	for _, n := range []*Node{n1, n2, n3} {
		if err := c.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if c.NrNodes() != 3 {
		t.Fatalf("NrNodes = %d", c.NrNodes())
	}
	// A node belongs to one cluster.
	c2 := NewEmptyCluster(a)
	if err := c2.AddNode(n1); err == nil {
		t.Fatal("node added to two clusters")
	}
	if err := c.AddNode(n1); err != nil {
		t.Fatal("re-adding to own cluster must be a no-op")
	}
	// freeNode(n2): renumbering.
	if err := c.FreeNode(n2); err != nil {
		t.Fatal(err)
	}
	if c.NrNodes() != 2 {
		t.Fatalf("NrNodes after free = %d", c.NrNodes())
	}
	if got, _ := c.Node(1); got != n3 {
		t.Fatal("renumbering wrong")
	}
	// freeNode by index.
	if err := c.FreeNodeAt(0); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Node(0); got != n3 {
		t.Fatal("index free wrong")
	}
	if err := c.FreeNode(n2); err == nil {
		t.Fatal("freeing non-member accepted")
	}
}

func TestClusterFreeReleasesAll(t *testing.T) {
	a := newFakeAlloc(5)
	c, _ := NewCluster(a, 3, nil)
	nodes := c.Nodes()
	c.Free()
	if !c.Freed() || c.NrNodes() != 0 {
		t.Fatal("cluster not freed")
	}
	for _, n := range nodes {
		if !n.Freed() {
			t.Errorf("member %s not freed", n.Name())
		}
	}
	if len(a.freed) != 3 {
		t.Fatalf("allocator got %d frees", len(a.freed))
	}
	if err := c.AddNode(&Node{name: "x"}); err == nil {
		t.Fatal("AddNode on freed cluster accepted")
	}
	c.Free() // idempotent
}

// levels lists, per container level, the paper-named methods TestLevels
// drives by name: add, count, get and free a member, and a member's way
// up.  Members are one level down, built by child; leaf names the
// level's getNode and its multi-index frees.
var levels = []struct {
	name, add, count, at, freeAt, freeMember, up string
	leaf                                         string
	leafFrees                                    []string
	paper                                        [][]int // the paper's example of this level (§4.2)
	build                                        func(a *fakeAlloc, sizes [][]int) (any, error)
	empty                                        func(a *fakeAlloc) any
	child                                        func(a *fakeAlloc) any
}{
	{"cluster", "AddNode", "NrNodes", "Node", "FreeNodeAt", "FreeNode", "Cluster", "Node", []string{"FreeNodeAt"}, [][]int{{5}},
		func(a *fakeAlloc, s [][]int) (any, error) { return NewCluster(a, s[0][0], nil) },
		func(a *fakeAlloc) any { return NewEmptyCluster(a) },
		func(a *fakeAlloc) any { n, _ := NewNode(a, nil); return n }},
	{"site", "AddCluster", "NrClusters", "Cluster", "FreeClusterAt", "FreeCluster", "Site", "Node", []string{"FreeNode"}, [][]int{{2, 4, 5}},
		func(a *fakeAlloc, s [][]int) (any, error) { return NewSite(a, s[0], nil) },
		func(a *fakeAlloc) any { return NewEmptySite(a) },
		func(a *fakeAlloc) any { c, _ := NewCluster(a, 1, nil); return c }},
	{"domain", "AddSite", "NrSites", "Site", "FreeSiteAt", "FreeSite", "Domain", "Node", []string{"FreeNode", "FreeCluster"}, [][]int{{1, 3, 5}, {6, 4}},
		func(a *fakeAlloc, s [][]int) (any, error) { return NewDomain(a, s, nil) },
		func(a *fakeAlloc) any { return NewEmptyDomain(a) },
		func(a *fakeAlloc) any { s, _ := NewSite(a, []int{1}, nil); return s }},
}

// call invokes a method by name.  A multi-index method (getNode(2, 1),
// freeNode(1, 2, 3)) given one int gets index 0 for the levels below.
func call(recv any, method string, args ...any) []any {
	m := reflect.ValueOf(recv).MethodByName(method)
	for len(args) < m.Type().NumIn() {
		args = append(args, 0)
	}
	in := make([]reflect.Value, len(args))
	for i, a := range args {
		in[i] = reflect.ValueOf(a)
	}
	var out []any
	for _, v := range m.Call(in) {
		out = append(out, v.Interface())
	}
	return out
}

func errOf(out []any) error { err, _ := out[len(out)-1].(error); return err }

func names(c any) []string { return c.(Component).NodeNames() }

func freed(c any) bool { return call(c, "Freed")[0].(bool) }

// TestLevels runs one table of rows on Cluster, Site and Domain.  build
// adds n members of one node each, so member i holds node i.
func TestLevels(t *testing.T) {
	for _, l := range levels {
		count := func(p any) int { return call(p, l.count)[0].(int) }
		up := func(c any) any { return call(c, l.up)[0] }
		build := func(a *fakeAlloc, n int) any {
			p := l.empty(a)
			for i := 0; i < n; i++ {
				call(p, l.add, l.child(a))
			}
			return p
		}
		rows := map[string]func(t *testing.T, a *fakeAlloc){
			"add": func(t *testing.T, a *fakeAlloc) {
				p, other, c, gone := l.empty(a), l.empty(a), l.child(a), l.child(a)
				if err := errOf(call(p, l.add, c)); err != nil || count(p) != 1 || up(c) != p {
					t.Fatalf("fresh: %v, count %d", err, count(p))
				}
				if err := errOf(call(p, l.add, c)); err != nil || count(p) != 1 {
					t.Fatalf("duplicate: %v, count %d", err, count(p))
				}
				if err := errOf(call(other, l.add, c)); !errors.Is(err, ErrOwned) || count(other) != 0 {
					t.Fatalf("owned elsewhere: %v", err)
				}
				call(gone, "Free")
				if err := errOf(call(p, l.add, gone)); !errors.Is(err, ErrFreed) {
					t.Fatalf("freed child: %v", err)
				}
				call(p, "Free")
				if err := errOf(call(p, l.add, l.child(a))); !errors.Is(err, ErrFreed) {
					t.Fatalf("freed parent: %v", err)
				}
			},
			"index": func(t *testing.T, a *fakeAlloc) {
				p := build(a, 3)
				for i := 0; i < 3; i++ {
					m, n := call(p, l.at, i), call(p, l.leaf, i)
					if errOf(m) != nil || errOf(n) != nil || up(m[0]) != p || n[0].(*Node).Name() != names(p)[i] {
						t.Fatalf("member %d: %v, %v", i, m, n)
					}
				}
				for _, i := range []int{-1, 3} {
					if !errors.Is(errOf(call(p, l.at, i)), ErrRange) || !errors.Is(errOf(call(p, l.leaf, i)), ErrRange) {
						t.Fatalf("index %d accepted", i)
					}
				}
			},
			"free-at": func(t *testing.T, a *fakeAlloc) {
				p := build(a, 3)
				m1, m2 := call(p, l.at, 1)[0], call(p, l.at, 2)[0]
				if err := errOf(call(p, l.freeAt, 1)); err != nil || count(p) != 2 || !freed(m1) || call(p, l.at, 1)[0] != m2 {
					t.Fatalf("freeAt(1): %v, count %d", err, count(p))
				}
				if err := errOf(call(p, l.freeAt, 2)); !errors.Is(err, ErrRange) {
					t.Fatalf("freeAt(2) of 2: %v", err)
				}
				for _, free := range l.leafFrees {
					q := build(a, 3)
					all := names(q)
					if err := errOf(call(q, free, 1)); err != nil || !slices.Equal(names(q), []string{all[0], all[2]}) {
						t.Fatalf("%s(1): %v, left %v", free, err, names(q))
					}
					if err := errOf(call(q, free, 7)); !errors.Is(err, ErrRange) {
						t.Fatalf("%s(7): %v", free, err)
					}
				}
			},
			"free-member": func(t *testing.T, a *fakeAlloc) {
				p := build(a, 2)
				m0 := call(p, l.at, 0)[0]
				if err := errOf(call(p, l.freeMember, m0)); err != nil || count(p) != 1 || !freed(m0) {
					t.Fatalf("member: %v, count %d", err, count(p))
				}
				for _, c := range []any{m0, l.child(a)} {
					if err := errOf(call(p, l.freeMember, c)); !errors.Is(err, ErrNotMember) || count(p) != 1 {
						t.Fatalf("non-member: %v", err)
					}
				}
			},
			"free-cascades": func(t *testing.T, a *fakeAlloc) {
				p := build(a, 3)
				all, members := names(p), []any{call(p, l.at, 0)[0], call(p, l.at, 1)[0], call(p, l.at, 2)[0]}
				a.freed = nil
				call(p, "Free")
				call(p, "Free")
				if !freed(p) || count(p) != 0 || !slices.Equal(a.freed, all) || !freed(members[0]) || !freed(members[2]) {
					t.Fatalf("freed %v, want %v once each in member order", a.freed, all)
				}
			},
			"implicit-parent": func(t *testing.T, a *fakeAlloc) {
				c := l.child(a)
				p := up(c)
				if count(p) != 1 || up(c) != p || !slices.Equal(names(p), names(c)) {
					t.Fatalf("implicit %s has %d members", l.name, count(p))
				}
			},
			"sizes": func(t *testing.T, a *fakeAlloc) {
				p, err := l.build(a, l.paper)
				total := 0
				for _, s := range l.paper {
					for _, n := range s {
						total += n
					}
				}
				all := names(p)
				slices.Sort(all)
				if err != nil || len(slices.Compact(all)) != total {
					t.Fatalf("%v: %v, nodes %v", l.paper, err, names(p))
				}
				if d, ok := p.(*Domain); ok && fmt.Sprint(d.NrClusters(), d.Topology()) != "5 [[[n00] [n01 n02 n03] [n04 n05 n06 n07 n08]] [[n09 n10 n11 n12 n13 n14] [n15 n16 n17 n18]]]" {
					t.Fatalf("domain shape: %d clusters, %v", d.NrClusters(), d.Topology())
				}
				small := newFakeAlloc(total - 1)
				if _, err := l.build(small, l.paper); err == nil || slices.ContainsFunc(small.pool, func(n string) bool { return small.reserved[n] > 0 }) {
					t.Fatalf("oversized %s allocated or not rolled back: %v", l.name, err)
				}
			},
		}
		for _, name := range []string{"add", "index", "free-at", "free-member", "free-cascades", "implicit-parent", "sizes"} {
			t.Run(l.name+"/"+name, func(t *testing.T) { rows[name](t, newFakeAlloc(20)) })
		}
	}
}

func TestComponentInterface(t *testing.T) {
	a := newFakeAlloc(10)
	d, _ := NewDomain(a, [][]int{{2, 2}}, nil)
	comps := []Component{d}
	s, _ := d.Site(0)
	comps = append(comps, s)
	c, _ := s.Cluster(0)
	comps = append(comps, c)
	n, _ := c.Node(0)
	comps = append(comps, n)
	wants := []int{4, 4, 2, 1}
	for i, comp := range comps {
		if got := len(comp.NodeNames()); got != wants[i] {
			t.Errorf("component %d has %d nodes, want %d", i, got, wants[i])
		}
		if comp.AggKey() != "" {
			t.Errorf("component %d has agg key before activation", i)
		}
	}
	c.SetAggKey("cluster:0:0")
	s.SetAggKey("site:0")
	d.SetAggKey("domain")
	if c.AggKey() != "cluster:0:0" || s.AggKey() != "site:0" || d.AggKey() != "domain" {
		t.Fatal("agg keys lost")
	}
}

func TestConstraintRestrictedSite(t *testing.T) {
	a := newFakeAlloc(10)
	constr := params.NewConstraints().MustSet(params.Idle, ">=", 95)
	// Only n00..n05 have idle >= 95.
	s, err := NewSite(a, []int{3, 3}, constr)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range s.NodeNames() {
		var idx int
		fmt.Sscanf(name, "n%02d", &idx)
		if idx > 5 {
			t.Errorf("node %s violates constraint", name)
		}
	}
	if _, err := NewSite(a, []int{3}, constr); err == nil {
		t.Fatal("constraint-starved site allocated")
	}
}
