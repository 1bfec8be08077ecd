// Package virtarch implements JavaSymphony's dynamic virtual distributed
// architectures (paper §3, §4.2): application-side Node, Cluster, Site,
// and Domain objects that impose a virtual hierarchy on the physical
// installation, are requested from JRS under optional constraints, can be
// built incrementally (addNode/addCluster/addSite), navigated
// (getCluster/getSite/getDomain, getNode), and partially or fully
// released (freeNode/freeCluster/freeSite/freeDomain).
//
// The four levels are one nested tree, node ⊂ cluster ⊂ site ⊂ domain,
// and share one body (tree); the paper-named methods in views.go are
// views over it.  The invariant of §3 — "every node belongs to a unique
// (cluster, site, domain) triple" — is enforced structurally: a
// component is a member of at most one parent, and navigation from a
// standalone component lazily materializes its implicit enclosing
// components.
package virtarch

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"jsymphony/internal/params"
)

// Allocator is the slice of JRS that virtual architectures need: picking
// physical nodes that satisfy constraints, and releasing them.  The core
// package provides the live implementation backed by the NAS directory.
type Allocator interface {
	// Alloc returns n distinct node names satisfying constr.  name pins
	// an exact host ("" = any); exclude lists nodes that must not be
	// chosen.
	Alloc(n int, name string, constr *params.Constraints, exclude []string) ([]string, error)
	// Free releases previously allocated nodes.
	Free(nodes []string)
}

// Errors returned by architecture operations.
var (
	ErrFreed     = errors.New("virtarch: component has been freed")
	ErrOwned     = errors.New("virtarch: already a member of another component")
	ErrNotMember = errors.New("virtarch: not a member of this component")
	ErrRange     = errors.New("virtarch: index out of range")
)

// mu guards all architecture topology; operations are application-level
// and rare, so one lock keeps the linked structure trivially consistent.
var mu sync.Mutex

// Tree levels, leaf first.
const (
	nodeLevel = iota
	clusterLevel
	siteLevel
	domainLevel
)

var levelNames = [...]string{"node", "cluster", "site", "domain"}

// tree is the body of every component: a node (the leaf, named after
// its host) or a cluster, site or domain holding the components one
// level down.  Node, Cluster, Site and Domain are this type under the
// paper's names.
type tree struct {
	alloc   Allocator
	level   int
	name    string // host name (nodes only)
	up      *tree  // enclosing component, nil until joined or materialized
	members []*tree
	freed   bool
	aggKey  string // set when a JRS hierarchy is active
}

// label names the component in error texts.
func (t *tree) label() string {
	if t.level == nodeLevel {
		return "node " + t.name
	}
	return levelNames[t.level]
}

// add inserts child as the last member (addNode/addCluster/addSite).
// Re-adding a member is a no-op.
func (t *tree) add(child *tree) error {
	mu.Lock()
	defer mu.Unlock()
	switch {
	case t.freed:
		return ErrFreed
	case child.freed:
		return fmt.Errorf("%w: %s", ErrFreed, child.label())
	case child.up == t:
		return nil
	case child.up != nil:
		return fmt.Errorf("%w: %s", ErrOwned, child.label())
	}
	t.adoptLocked(child)
	return nil
}

// adoptLocked links child under t; caller holds mu (or owns both).
func (t *tree) adoptLocked(child *tree) *tree {
	child.up = t
	t.members = append(t.members, child)
	return child
}

// at walks down path, one member index per level (getNode(2, 1)).
func (t *tree) at(path ...int) (*tree, error) {
	mu.Lock()
	defer mu.Unlock()
	for _, i := range path {
		if i < 0 || i >= len(t.members) {
			return nil, fmt.Errorf("%w: %s %d of %d", ErrRange, levelNames[t.level-1], i, len(t.members))
		}
		t = t.members[i]
	}
	return t, nil
}

// list returns the current members in order.
func (t *tree) list() []*tree {
	mu.Lock()
	defer mu.Unlock()
	return slices.Clone(t.members)
}

// count returns how many components of the given level t holds.
func (t *tree) count(level int) int {
	mu.Lock()
	defer mu.Unlock()
	return t.countLocked(level)
}

func (t *tree) countLocked(level int) int {
	if t.level == level {
		return 1
	}
	n := 0
	for _, m := range t.members {
		n += m.countLocked(level)
	}
	return n
}

// nodeNames returns every live host name below t, in member order.
func (t *tree) nodeNames() []string {
	mu.Lock()
	defer mu.Unlock()
	return t.appendNamesLocked(nil)
}

func (t *tree) appendNamesLocked(out []string) []string {
	if t.level == nodeLevel && !t.freed {
		return append(out, t.name)
	}
	for _, m := range t.members {
		out = m.appendNamesLocked(out)
	}
	return out
}

// ancestor returns t's enclosing component at level, materializing an
// implicit singleton parent at every level that has none
// (getCluster/getSite/getDomain).
func (t *tree) ancestor(level int) *tree {
	mu.Lock()
	defer mu.Unlock()
	for t.level < level {
		if t.up == nil {
			(&tree{alloc: t.alloc, level: t.level + 1}).adoptLocked(t)
		}
		t = t.up
	}
	return t
}

// free releases t and everything below it, each node once and in member
// order (freeNode/freeCluster/freeSite/freeDomain).
func (t *tree) free() {
	mu.Lock()
	if t.freed {
		mu.Unlock()
		return
	}
	t.freed = true
	members := slices.Clone(t.members)
	if up := t.up; up != nil {
		up.members = slices.DeleteFunc(up.members, func(m *tree) bool { return m == t })
	}
	t.up = nil
	mu.Unlock()
	if t.level == nodeLevel && t.alloc != nil {
		t.alloc.Free([]string{t.name})
	}
	for _, m := range members {
		m.free()
	}
}

// freeAt releases the i-th member (freeNode(2), freeCluster(1)).
func (t *tree) freeAt(i int) error {
	m, err := t.at(i)
	if err != nil {
		return err
	}
	m.free()
	return nil
}

// freeMember releases child if it is a member of t (freeNode(n2)).
func (t *tree) freeMember(child *tree) error {
	mu.Lock()
	owned := child.up == t
	mu.Unlock()
	if !owned {
		return fmt.Errorf("%w: %s", ErrNotMember, child.label())
	}
	child.free()
	return nil
}

// isFreed reports whether t has been released.
func (t *tree) isFreed() bool {
	mu.Lock()
	defer mu.Unlock()
	return t.freed
}

func (t *tree) setAggKey(k string) {
	mu.Lock()
	t.aggKey = k
	mu.Unlock()
}

func (t *tree) getAggKey() string {
	mu.Lock()
	defer mu.Unlock()
	return t.aggKey
}

// allocate builds a component of the given level from a nested size
// specification, sizes[site][cluster] nodes (a cluster reads
// sizes[0][0], a site sizes[0]).  Each cluster's nodes come from one
// Alloc that excludes everything reserved before it; a failed Alloc
// releases those and fails the whole component.
func allocate(a Allocator, level int, sizes [][]int, constr *params.Constraints) (*tree, error) {
	root := &tree{alloc: a, level: level}
	var reserved []string
	for _, clusters := range sizes {
		site := root
		if level == domainLevel {
			site = root.adoptLocked(&tree{alloc: a, level: siteLevel})
		}
		for _, n := range clusters {
			names, err := a.Alloc(n, "", constr, reserved)
			if err != nil {
				if len(reserved) > 0 {
					a.Free(reserved)
				}
				return nil, err
			}
			reserved = append(reserved, names...)
			cluster := site
			if level > clusterLevel {
				cluster = site.adoptLocked(&tree{alloc: a, level: clusterLevel})
			}
			for _, name := range names {
				cluster.adoptLocked(&tree{alloc: a, name: name})
			}
		}
	}
	return root, nil
}

// allocNode reserves one node: the named host, or any node satisfying
// constr when name is "".
func allocNode(a Allocator, name string, constr *params.Constraints) (*Node, error) {
	names, err := a.Alloc(1, name, constr, nil)
	if err != nil {
		return nil, err
	}
	return &Node{alloc: a, name: names[0]}, nil
}

// Component is any virtual architecture element an object can be mapped
// onto: a Node, Cluster, Site, or Domain (paper §4.4).
type Component interface {
	// NodeNames returns the candidate physical nodes of the component.
	NodeNames() []string
	// AggKey returns the NAS aggregation key, "" if not activated.
	AggKey() string
	// Domain returns the enclosing domain (getDomain); a Domain is its
	// own.
	Domain() *Domain
}

// view is the set of paper-named types over tree.
type view interface {
	*Node | *Cluster | *Site | *Domain
}

func viewOf[V view](t *tree, err error) (V, error) { return V(t), err }

func viewsOf[V view](ts []*tree) []V {
	out := make([]V, len(ts))
	for i, t := range ts {
		out[i] = V(t)
	}
	return out
}
