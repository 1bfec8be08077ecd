package nas

import (
	"fmt"
	"slices"
	"sync"

	"jsymphony/internal/params"
	"jsymphony/internal/sched"
)

// Topology describes the nodes of one virtual architecture as
// [site][cluster][]node-name.  A Hierarchy imposes the paper's manager
// structure on it: every cluster has a manager node drawn from the
// cluster, the site manager is one of its cluster managers, and the
// domain manager is one of the site managers (§5.1: "Only a cluster
// manager can be a site manager and only a site manager can be a domain
// manager").
type Topology [][][]string

// Component keys used for aggregates and events.
func ClusterKey(site, cluster int) string { return fmt.Sprintf("cluster:%d:%d", site, cluster) }
func SiteKey(site int) string             { return fmt.Sprintf("site:%d", site) }

// DomainKey names the whole-domain aggregate.
const DomainKey = "domain"

// EventKind classifies hierarchy events.
type EventKind int

const (
	// EventNodeFailed: a node stopped responding and was released from
	// the architecture (§5.1 failure rule 1).
	EventNodeFailed EventKind = iota
	// EventManagerChanged: a backup manager took over a component
	// (§5.1 failure rule 2), or a voluntary release moved the role.
	EventManagerChanged
	// EventNodeRecovered: a previously failed node resumed reporting
	// (emitted by the failure detector, not by hierarchies).
	EventNodeRecovered
)

// Event is a hierarchy notification delivered to the JS-Shell / OAS.
type Event struct {
	Kind      EventKind
	Component string // component key the event concerns
	Node      string // failed node, or new manager
	Old       string // previous manager for EventManagerChanged
}

func (e Event) String() string {
	switch e.Kind {
	case EventNodeFailed:
		return fmt.Sprintf("node %s failed (%s)", e.Node, e.Component)
	case EventManagerChanged:
		return fmt.Sprintf("manager of %s: %s -> %s", e.Component, e.Old, e.Node)
	case EventNodeRecovered:
		return fmt.Sprintf("node %s recovered (%s)", e.Node, e.Component)
	}
	return "unknown event"
}

// Hierarchy runs the manager processes of one virtual architecture.
type Hierarchy struct {
	agents map[string]*Agent
	cfg    Config
	notify func(Event)

	mu      sync.Mutex
	roles   []role         // clusters by (site, cluster), then sites, then the domain
	index   map[string]int // component key -> position in roles
	stopped bool
}

// role is one managed component: a cluster, a site or the domain.  key,
// up and cluster never change after NewHierarchy; members, mgr and gen
// are guarded by mu.
type role struct {
	key     string
	up      int      // position of the role above; -1 for the domain
	cluster bool     // the children are member nodes, not roles
	members []string // a cluster's nodes, in order
	mgr     string   // "" while no node can hold the role
	gen     int      // bumped whenever mgr changes or the hierarchy stops
}

// NewHierarchy wires a hierarchy over the given per-node agents.  notify
// (may be nil) receives failure and takeover events.
func NewHierarchy(agents map[string]*Agent, topo Topology, cfg Config, notify func(Event)) *Hierarchy {
	h := &Hierarchy{agents: agents, cfg: cfg.withDefaults(), notify: notify, index: make(map[string]int)}
	add := func(r role) {
		h.index[r.key] = len(h.roles)
		h.roles = append(h.roles, r)
	}
	clusters := 0
	for _, site := range topo {
		clusters += len(site)
	}
	for s, site := range topo {
		for c, cl := range site {
			add(role{key: ClusterKey(s, c), up: clusters + s, cluster: true, members: append([]string(nil), cl...)})
		}
	}
	for s := range topo {
		add(role{key: SiteKey(s), up: clusters + len(topo)})
	}
	add(role{key: DomainKey, up: -1})
	for i := range h.roles {
		h.roles[i].mgr = h.electLocked(i)
	}
	return h
}

// electLocked picks role i's manager by the paper's promotion rule: a
// cluster's first member (its pre-designated backup once the manager is
// gone), else the first manager among the roles below (§5.1: "Only a
// cluster manager can be a site manager and only a site manager can be
// a domain manager").  Caller holds mu.
func (h *Hierarchy) electLocked(i int) string {
	if r := &h.roles[i]; r.cluster {
		if len(r.members) > 0 {
			return r.members[0]
		}
		return ""
	}
	for j := range h.roles {
		if h.roles[j].up == i && h.roles[j].mgr != "" {
			return h.roles[j].mgr
		}
	}
	return ""
}

// Start spawns every manager process in role order, so the proc
// registration sequence is a pure function of the topology.
func (h *Hierarchy) Start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.roles {
		if h.roles[i].mgr != "" {
			h.spawnLocked(i)
		}
	}
}

// Stop retires all manager processes at their next tick.
func (h *Hierarchy) Stop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	for i := range h.roles {
		h.roles[i].gen++
	}
}

// ClusterManager returns the manager node of cluster (site, c).
func (h *Hierarchy) ClusterManager(site, c int) (string, bool) {
	return h.ManagerOf(ClusterKey(site, c))
}

// SiteManager returns the manager node of the site.
func (h *Hierarchy) SiteManager(site int) (string, bool) { return h.ManagerOf(SiteKey(site)) }

// DomainManager returns the domain manager node.
func (h *Hierarchy) DomainManager() string {
	m, _ := h.ManagerOf(DomainKey)
	return m
}

// ManagerOf resolves a component key to its manager node.
func (h *Hierarchy) ManagerOf(component string) (string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i, ok := h.index[component]
	if !ok {
		return "", false
	}
	m := h.roles[i].mgr
	return m, m != ""
}

// Members returns the current nodes of a cluster.
func (h *Hierarchy) Members(site, c int) []string {
	i, ok := h.index[ClusterKey(site, c)]
	if !ok {
		return nil
	}
	return h.members(i)
}

func (h *Hierarchy) members(i int) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.roles[i].members...)
}

// manager returns role i's current manager, "" if it has none.
func (h *Hierarchy) manager(i int) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.roles[i].mgr
}

// emit delivers an event outside the lock.
func (h *Hierarchy) emit(evs []Event) {
	if h.notify == nil {
		return
	}
	for _, e := range evs {
		h.notify(e)
	}
}

// genOK reports whether the proc generation of role i is still current.
func (h *Hierarchy) genOK(i, gen int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.stopped && h.roles[i].gen == gen
}

// ---------------------------------------------------------------------
// Manager processes.

// spawnLocked starts role i's manager proc and, for a cluster with a
// second node, the paper's pre-designated backup manager: a watchdog on
// that node which examines the manager each period and takes over its
// roles when it stops responding (§5.1: "a backup manager within the
// same hierarchy releases the manager and takes over").  Caller holds
// mu.
func (h *Hierarchy) spawnLocked(i int) {
	r := &h.roles[i]
	mgr, gen := r.mgr, r.gen
	ag := h.agents[mgr]
	if ag == nil {
		return
	}
	ag.Station().Sched().Spawn(fmt.Sprintf("nas.mgr:%s@%s", r.key, mgr), func(p sched.Proc) {
		h.run(p, i, mgr, gen)
	})
	if !r.cluster {
		return
	}
	for _, backup := range r.members {
		if backup == mgr {
			continue
		}
		if bag := h.agents[backup]; bag != nil {
			bag.Station().Sched().Spawn(fmt.Sprintf("nas.backup:%s@%s", r.key, backup), func(p sched.Proc) {
				h.runBackup(p, bag, i, mgr, gen)
			})
		}
		return
	}
}

// runBackup is the backup manager's watchdog loop.
func (h *Hierarchy) runBackup(p sched.Proc, ag *Agent, i int, mgr string, gen int) {
	for h.genOK(i, gen) && ag.Alive() {
		p.Sleep(h.cfg.MonitorPeriod)
		if !h.genOK(i, gen) || !ag.Alive() {
			return
		}
		if !ag.Ping(p, mgr) {
			h.release(mgr, true)
			return // reassignment bumped the generation
		}
	}
}

// run is the manager loop of role i: each period it polls the children,
// publishes their average under the role's key, and examines the
// manager above.
func (h *Hierarchy) run(p sched.Proc, i int, mgr string, gen int) {
	ag := h.agents[mgr]
	r := &h.roles[i]
	for h.genOK(i, gen) && ag.Alive() {
		snaps, failed := h.poll(p, ag, i, mgr)
		if r.cluster || len(snaps) > 0 {
			ag.SetAgg(r.key, params.Average(snaps...))
		}
		for _, n := range failed {
			h.release(n, true)
		}
		if r.up >= 0 {
			if above := h.manager(r.up); above != "" && above != mgr && !ag.Ping(p, above) {
				h.release(above, true)
			}
		}
		p.Sleep(h.cfg.MonitorPeriod)
	}
}

// poll gathers one tick's child snapshots.  A cluster manager fetches
// every member's snapshot, reading its own locally (NA and PubOA share a
// JVM in the paper), and returns the members that did not answer.  A
// site or domain manager fetches the aggregate that each child's current
// manager publishes; a child manager that fails the fetch is declared
// failed only if it fails a ping too.
func (h *Hierarchy) poll(p sched.Proc, ag *Agent, i int, mgr string) (snaps []params.Snapshot, failed []string) {
	if h.roles[i].cluster {
		for _, n := range h.members(i) {
			if n == mgr {
				snaps = append(snaps, ag.Latest())
				continue
			}
			snap, err := ag.FetchSnapshot(p, n)
			if err != nil {
				failed = append(failed, n)
				continue
			}
			snaps = append(snaps, snap)
		}
		return snaps, failed
	}
	for j := range h.roles {
		if h.roles[j].up != i {
			continue
		}
		cm := h.manager(j)
		if cm == "" {
			continue
		}
		snap, err := ag.FetchAgg(p, cm, h.roles[j].key)
		if err != nil {
			if cm != mgr && !ag.Ping(p, cm) {
				h.release(cm, true)
			}
			continue
		}
		snaps = append(snaps, snap)
	}
	return snaps, nil
}

// ---------------------------------------------------------------------
// Failure handling and manager promotion.

// RemoveNode voluntarily releases a node (freeNode on a live node): same
// role reassignment as a failure, but no failure event.
func (h *Hierarchy) RemoveNode(node string) { h.release(node, false) }

// release drops node from its cluster and re-elects every role it held,
// bottom-up in role order.  A failed non-manager member is simply
// released by its cluster (§5.1 rule 1); a failed manager's roles pass
// to its cluster's backup and cascade upward (rule 2).
func (h *Hierarchy) release(node string, failed bool) {
	h.mu.Lock()
	evs := h.releaseLocked(node, failed)
	h.mu.Unlock()
	h.emit(evs)
}

func (h *Hierarchy) releaseLocked(node string, failed bool) []Event {
	var evs []Event
	found := false
	for i := range h.roles {
		r := &h.roles[i]
		if k := slices.Index(r.members, node); k >= 0 {
			found = true
			r.members = slices.Delete(r.members, k, k+1)
			if failed {
				evs = append(evs, Event{Kind: EventNodeFailed, Component: r.key, Node: node})
			}
		}
	}
	if !found {
		return nil // already handled by a concurrent detection
	}
	for i := range h.roles {
		r := &h.roles[i]
		if r.mgr != node {
			continue
		}
		r.gen++
		if r.mgr = h.electLocked(i); r.mgr != "" {
			h.spawnLocked(i)
			evs = append(evs, Event{Kind: EventManagerChanged, Component: r.key, Node: r.mgr, Old: node})
		}
	}
	return evs
}
