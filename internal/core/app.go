package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sync"

	"jsymphony/internal/nas"
	"jsymphony/internal/params"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
)

// App is one registered JavaSymphony application: the AppOA of §5.2.  It
// owns the local-objects-table (handle → current location), answers
// locate queries from other agents, allocates virtual architectures, and
// coordinates migration, so it is always aware of where its objects live.
type App struct {
	world *World
	rt    *Runtime
	id    string

	mu          sync.Mutex
	seq         uint64
	objs        map[uint64]*objEntry
	vas         []*appVA
	done        bool
	autoGen     int
	ckptPeriod  time.Duration
	ckptGen     int
	recovering  map[string]bool // dead nodes with a recovery pass in flight
	authOn      bool            // write-authority renewal proc started
	shardGroups map[string]*ShardGroup
	durManSeq   uint64      // durable-manifest revision counter
	place       *placeState // static placement oracle (nil when unarmed)
}

// objEntry is one local-objects-table row.
type objEntry struct {
	ref      Ref
	location string
	comp     virtarch.Component  // placement target (may be nil)
	constr   *params.Constraints // creation constraints (may be nil)
	freed    bool
	pol      *replica.Policy // non-nil once Replicate was applied
	replicas []string        // current read-replica nodes, sorted; replaced, never written in place
	durable  bool            // WAL-backed: survives crashes via log replay
	durReads []string        // methods durability treats as reads (no logging)

	// Write-authority bookkeeping (see replica_app.go).  authHorizon is
	// the expiry of the latest authority grant that might have reached
	// the primary (set before each grant is sent, so it is conservative
	// even when the grant's outcome is unknown); promoting pauses grants
	// while a survivor election fences the old primary against it.
	authHorizon time.Duration
	promoting   bool
	// fenced lists nodes that still (may) host a deposed primary lineage
	// of this object — a promotion replaced the primary there while it
	// was unreachable.  A crash wipes the zombie with the node, but a
	// partitioned node keeps it; the post-heal cleanup (cleanupZombies)
	// tears those down when the detector reports the node recovered.
	fenced []string
}

// rset builds the entry's advertised replica set, sharing the member
// list as it lies.  Caller holds a.mu.
func (e *objEntry) rset() replica.Set {
	if e.pol == nil || len(e.replicas) == 0 {
		return replica.Set{}
	}
	return replica.Set{
		Primary:  e.location,
		Replicas: e.replicas,
		Mode:     e.pol.Mode,
		Lease:    e.pol.Lease,
		Reads:    e.pol.Reads,
	}
}

// appVA tracks one activated virtual architecture.
type appVA struct {
	domain *virtarch.Domain
	constr *params.Constraints
	hier   *nas.Hierarchy
}

// Register attaches a new application to the world at the given home
// node — "JSRegistration reg = new JSRegistration()" (§4.1).
func (w *World) Register(homeNode string) (*App, error) {
	rt, ok := w.Runtime(homeNode)
	if !ok {
		return nil, fmt.Errorf("core: no such node %q", homeNode)
	}
	w.mu.Lock()
	w.appSeq++
	id := fmt.Sprintf("app:%s:%d", homeNode, w.appSeq)
	autoPeriod := w.autoPeriod
	w.mu.Unlock()

	a := &App{
		world:       w,
		rt:          rt,
		id:          id,
		objs:        make(map[uint64]*objEntry),
		shardGroups: make(map[string]*ShardGroup),
	}
	rt.st.Register("oas.app:"+id, appMethods.Serve(a))

	w.mu.Lock()
	w.apps = append(w.apps, a)
	w.mu.Unlock()
	if autoPeriod > 0 {
		a.setAutoPeriod(autoPeriod)
	}
	w.emit(trace.Event{Kind: trace.AppRegistered, Node: homeNode, App: id})
	return a, nil
}

// ID returns the application id.
func (a *App) ID() string { return a.id }

// Home returns the application's home node.
func (a *App) Home() string { return a.rt.Node() }

// Runtime returns the home node's runtime.
func (a *App) Runtime() *Runtime { return a.rt }

// World returns the owning world.
func (a *App) World() *World { return a.world }

// Unregister detaches the application: all its objects are freed, its
// architectures deactivated, and its AppOA service removed (§4.1: "an
// application should un-register from JRS as soon as none of the objects
// generated under JRS are still needed").
func (a *App) Unregister(p sched.Proc) {
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.done = true
	a.autoGen++ // stops the auto-migration engine
	a.ckptGen++ // stops the checkpoint engine
	// Free in ascending object-id order: freeEntry emits trace events
	// and teardown RMIs, so map iteration order would leak into the
	// deterministic event stream.
	ids := make([]uint64, 0, len(a.objs))
	for id := range a.objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	objs := make([]*objEntry, 0, len(ids))
	for _, id := range ids {
		objs = append(objs, a.objs[id])
	}
	vas := append([]*appVA(nil), a.vas...)
	a.mu.Unlock()

	for _, e := range objs {
		if !e.freed {
			a.freeEntry(p, e)
		}
	}
	for _, va := range vas {
		va.hier.Stop()
	}
	a.rt.st.Unregister("oas.app:" + a.id)
	a.world.emit(trace.Event{Kind: trace.AppUnregistered, Node: a.rt.Node(), App: a.id})
}

// appMethods is the AppOA service table (DESIGN.md §15).
var appMethods = rmi.Methods[*App]{"locate": rmi.Typed((*App).locate)}

// locate serves the AppOA service: where does object req.ID live?
func (a *App) locate(_ sched.Proc, req locateReq) (locateResp, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	resp := locateResp{}
	if e, ok := a.objs[req.ID]; ok && !e.freed {
		resp.Node = e.location
		resp.OK = true
		resp.RSet = e.rset()
	}
	return resp, nil
}

// Allocator returns the application's virtual-architecture allocator —
// the JRS half of "new Cluster(5, constr)".
func (a *App) Allocator(p sched.Proc) virtarch.Allocator {
	return &jrsAllocator{app: a, p: p}
}

// jrsAllocator implements virtarch.Allocator against the NAS directory.
type jrsAllocator struct {
	app *App
	p   sched.Proc
}

func (ja *jrsAllocator) Alloc(n int, name string, constr *params.Constraints, exclude []string) ([]string, error) {
	a := ja.app
	eff := constr
	if eff == nil {
		eff = a.world.DefaultConstraints()
	}
	return nas.SelectNodes(ja.p, a.rt.st, a.world.dirNode, nas.SelectOpts{
		N: n, Name: name, Constr: eff, Exclude: exclude, Spread: true, Reserve: true,
	})
}

func (ja *jrsAllocator) Free(nodes []string) {
	// A node released from the application also leaves the manager
	// hierarchies of its activated architectures (§4.2 freeNode); the
	// managers reassign roles as for a voluntary removal.
	a := ja.app
	a.mu.Lock()
	vas := append([]*appVA(nil), a.vas...)
	a.mu.Unlock()
	for _, va := range vas {
		for _, n := range nodes {
			va.hier.RemoveNode(n)
		}
	}
	_ = nas.ReleaseNodes(ja.p, a.rt.st, a.world.dirNode, nodes...)
}

// ActivateVA starts JRS management (manager hierarchy, aggregation,
// failure handling) for a virtual architecture and registers it for
// automatic migration.  Component agg keys are assigned positionally.
func (a *App) ActivateVA(comp virtarch.Component, constr *params.Constraints, notify func(nas.Event)) *nas.Hierarchy {
	notify = a.traceNASEvents(a.armRecovery(notify))
	domain := comp.Domain()
	agents := make(map[string]*nas.Agent)
	for _, rtName := range a.world.Nodes() {
		agents[rtName] = a.world.MustRuntime(rtName).agent
	}
	h := nas.NewHierarchy(agents, domain.Topology(), a.world.nasCfg, notify)
	// Assign aggregation keys positionally so getSysParam on components
	// resolves to the right manager aggregate.
	domain.SetAggKey(nas.DomainKey)
	for si, site := range domain.Sites() {
		site.SetAggKey(nas.SiteKey(si))
		for ci, cl := range site.Clusters() {
			cl.SetAggKey(nas.ClusterKey(si, ci))
		}
	}
	h.Start()
	va := &appVA{domain: domain, constr: constr, hier: h}
	a.mu.Lock()
	a.vas = append(a.vas, va)
	a.mu.Unlock()
	a.world.trackHierarchy(h)
	return h
}

// traceNASEvents mirrors architecture failure/takeover notifications
// into the installation event log.
func (a *App) traceNASEvents(notify func(nas.Event)) func(nas.Event) {
	return func(e nas.Event) {
		switch e.Kind {
		case nas.EventNodeFailed:
			a.world.emit(trace.Event{Kind: trace.NodeFailed, Node: e.Node, Detail: e.Component})
		case nas.EventManagerChanged:
			a.world.emit(trace.Event{Kind: trace.ManagerChanged, Node: e.Node, Detail: e.Component + " (was " + e.Old + ")"})
		case nas.EventNodeRecovered:
			a.world.emit(trace.Event{Kind: trace.NodeRecovered, Node: e.Node, Detail: e.Component})
		}
		if notify != nil {
			notify(e)
		}
	}
}

// hierarchyFor finds the activated hierarchy covering a component key.
func (a *App) hierarchyFor(key string) *nas.Hierarchy {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, va := range a.vas {
		if _, ok := va.hier.ManagerOf(key); ok {
			return va.hier
		}
	}
	return nil
}

// SysParam reads a system parameter for an architecture component
// (§4.6).  Node parameters come straight from the node's agent; cluster,
// site, and domain parameters come from the manager's aggregate when the
// architecture is activated, falling back to averaging direct fetches.
func (a *App) SysParam(p sched.Proc, comp virtarch.Component, id params.ID) (params.Value, error) {
	snap, err := a.componentSnapshot(p, comp)
	if err != nil {
		return params.Value{}, err
	}
	v, ok := snap.Get(id)
	if !ok {
		return params.Value{}, fmt.Errorf("core: parameter %s unavailable for component", id)
	}
	return v, nil
}

// ConstrHold verifies whether a constraint set currently holds for a
// component (§4.6 constrHold).
func (a *App) ConstrHold(p sched.Proc, comp virtarch.Component, constr *params.Constraints) (bool, error) {
	snap, err := a.componentSnapshot(p, comp)
	if err != nil {
		return false, err
	}
	return constr.Eval(snap), nil
}

// componentSnapshot resolves a component to a parameter snapshot.
func (a *App) componentSnapshot(p sched.Proc, comp virtarch.Component) (params.Snapshot, error) {
	if n, ok := comp.(*virtarch.Node); ok {
		return a.rt.agent.FetchSnapshot(p, n.Name())
	}
	if key := comp.AggKey(); key != "" {
		if h := a.hierarchyFor(key); h != nil {
			if mgr, ok := h.ManagerOf(key); ok {
				if snap, err := a.rt.agent.FetchAgg(p, mgr, key); err == nil {
					return snap, nil
				}
			}
		}
	}
	// Fallback: average fresh per-node snapshots.
	names := comp.NodeNames()
	if len(names) == 0 {
		return params.Snapshot{}, errors.New("core: component has no nodes")
	}
	var snaps []params.Snapshot
	for _, n := range names {
		snap, err := a.rt.agent.FetchSnapshot(p, n)
		if err != nil {
			continue
		}
		snaps = append(snaps, snap)
	}
	if len(snaps) == 0 {
		return params.Snapshot{}, errors.New("core: no component node responded")
	}
	return params.Average(snaps...), nil
}
