package jsymphony

import (
	"time"

	"jsymphony/internal/core"
	"jsymphony/internal/nas"
	"jsymphony/internal/sched"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
)

// JS is one registered application session — the combination of the
// paper's JSRegistration and JS utility class, bound to the goroutine
// (or simulation proc) driving the application.
type JS struct {
	env *Env
	app *core.App
	p   sched.Proc
}

// App exposes the underlying application for advanced use.
func (js *JS) App() *core.App { return js.app }

// Env returns the session's environment.
func (js *JS) Env() *Env { return js.env }

// Proc returns the session's scheduling context.
func (js *JS) Proc() sched.Proc { return js.p }

// Unregister detaches the application from JRS, freeing all its objects
// ("reg.unregister()", §4.1).  RunMain calls it automatically.
func (js *JS) Unregister() { js.app.Unregister(js.p) }

// Sleep suspends the application for d (virtual time in simulations).
func (js *JS) Sleep(d time.Duration) { js.p.Sleep(d) }

// Now returns the session time since the environment epoch.
func (js *JS) Now() time.Duration { return js.app.World().Sched().Now() }

// Compute charges the application's home node CPU with the given number
// of floating-point operations (virtual time in simulations, no-op in
// real time) — used to model local sequential computation.
func (js *JS) Compute(flops float64) { js.app.Runtime().Compute(js.p, flops) }

// EnableRecovery turns on checkpoint-based failure recovery for this
// application (the OAS recovery the paper lists as future work): all
// objects are persisted every period, and when an activated architecture
// reports a node failure, the objects that lived there are re-created
// from their checkpoints on healthy nodes under the same handles.
// period <= 0 disables it.
func (js *JS) EnableRecovery(period time.Duration) { js.app.EnableRecovery(period) }

// RecoverDurable rebuilds every durable object recorded in the
// write-ahead logs after a whole-cluster restart: an application on a
// fresh environment constructed over the same WALStable replays each
// node's log and re-materializes plain objects, replica sets, and shard
// groups with identical ring membership.  Objects whose state never
// reached stable storage are reported as lost.
func (js *JS) RecoverDurable() ([]DurableRecovery, error) {
	return js.app.RecoverDurable(js.p)
}

// Spawn runs fn concurrently within the session's world, giving it its
// own JS bound to the new proc.  In simulations this is the only correct
// way to add concurrency (plain goroutines would escape virtual time).
func (js *JS) Spawn(name string, fn func(js *JS)) {
	app := js.app
	env := js.env
	app.World().Sched().Spawn(name, func(p sched.Proc) {
		fn(&JS{env: env, app: app, p: p})
	})
}

// ---------------------------------------------------------------------
// Virtual architectures (§4.2).

// LocalNode returns the node the application executes on
// ("JS.getLocalNode()").
func (js *JS) LocalNode() (*Node, error) {
	return virtarch.NewNamedNode(js.app.Allocator(js.p), js.app.Home())
}

// NewNode requests an arbitrary node, optionally under constraints
// ("new Node()" / "new Node(constr)"); pass nil for none.
func (js *JS) NewNode(constr *Constraints) (*Node, error) {
	return virtarch.NewNode(js.app.Allocator(js.p), constr)
}

// NewNamedNode requests a specific host ("new Node(\"rachel\")").
func (js *JS) NewNamedNode(name string) (*Node, error) {
	return virtarch.NewNamedNode(js.app.Allocator(js.p), name)
}

// NewCluster requests a cluster of n nodes ("new Cluster(5, constr)").
func (js *JS) NewCluster(n int, constr *Constraints) (*Cluster, error) {
	return virtarch.NewCluster(js.app.Allocator(js.p), n, constr)
}

// NewEmptyCluster returns a cluster to fill with AddNode.
func (js *JS) NewEmptyCluster() *Cluster {
	return virtarch.NewEmptyCluster(js.app.Allocator(js.p))
}

// NewSite requests a site of clusters with the given sizes
// ("new Site(SiteNodes, constr)").
func (js *JS) NewSite(clusterSizes []int, constr *Constraints) (*Site, error) {
	return virtarch.NewSite(js.app.Allocator(js.p), clusterSizes, constr)
}

// NewEmptySite returns a site to fill with AddCluster.
func (js *JS) NewEmptySite() *Site {
	return virtarch.NewEmptySite(js.app.Allocator(js.p))
}

// NewDomain requests a domain ("new Domain(DomainNodes, constr)") from a
// nested size specification like [][]int{{1,3,5},{6,4}}.
func (js *JS) NewDomain(siteClusterSizes [][]int, constr *Constraints) (*Domain, error) {
	return virtarch.NewDomain(js.app.Allocator(js.p), siteClusterSizes, constr)
}

// NewEmptyDomain returns a domain to fill with AddSite.
func (js *JS) NewEmptyDomain() *Domain {
	return virtarch.NewEmptyDomain(js.app.Allocator(js.p))
}

// ActivateVA starts JRS management for an architecture: the manager
// hierarchy with hierarchical parameter averaging and failure takeover
// (§5.1), and — when automatic migration is enabled — periodic
// constraint re-verification with locality-preserving evacuation (§5.2).
// notify (may be nil) receives failure and takeover events.
func (js *JS) ActivateVA(comp Component, constr *Constraints, notify func(NASEvent)) *nas.Hierarchy {
	return js.app.ActivateVA(comp, constr, notify)
}

// SysParam reads one system parameter of a node, cluster, site, or
// domain ("getSysParam", §4.6); component values are averages.
func (js *JS) SysParam(comp Component, id ParamID) (ParamValue, error) {
	return js.app.SysParam(js.p, comp, id)
}

// ConstrHold verifies a constraint set against a component
// ("constrHold", §4.6).
func (js *JS) ConstrHold(comp Component, constr *Constraints) (bool, error) {
	return js.app.ConstrHold(js.p, comp, constr)
}

// ---------------------------------------------------------------------
// Class loading (§4.3).

// Codebase collects classes for selective loading onto architecture
// components (the paper's JSCodebase).
type Codebase struct {
	cb *core.Codebase
	js *JS
}

// NewCodebase initializes an empty codebase ("new JSCodebase()").
func (js *JS) NewCodebase() *Codebase {
	return &Codebase{cb: js.app.NewCodebase(), js: js}
}

// Add appends a registered class ("codebase.add(...)").
func (cb *Codebase) Add(class string) error { return cb.cb.Add(class) }

// Load ships the codebase to every node of the component
// ("codebase.load(node|cluster|site|domain)").
func (cb *Codebase) Load(comp Component) error { return cb.cb.Load(cb.js.p, comp) }

// LoadNodes ships the codebase to explicit nodes.
func (cb *Codebase) LoadNodes(nodes ...string) error {
	return cb.cb.LoadNodes(cb.js.p, nodes...)
}

// Bytes reports the modeled archive size.
func (cb *Codebase) Bytes() int { return cb.cb.Bytes() }

// Free releases the codebase ("codebase.free()").
func (cb *Codebase) Free() { cb.cb.Free() }

// ---------------------------------------------------------------------
// Objects (§4.4–4.7).

// Object is the paper's JSObj: a handle to a (possibly remote) object.
type Object struct {
	o  *core.Object
	js *JS
}

// NewObject generates an object of the given class ("new JSObj(...)"):
// where == nil lets JRS pick the node (optionally under constr and the
// JS-Shell defaults); a *Node pins the placement; a cluster, site, or
// domain restricts it.  Pass another object's Node() to co-locate.
func (js *JS) NewObject(class string, where Component, constr *Constraints) (*Object, error) {
	o, err := js.app.NewObject(js.p, class, where, constr)
	if err != nil {
		return nil, err
	}
	return &Object{o: o, js: js}, nil
}

// InstallPlacementHints arms the static placement oracle for this
// application: NewObjectTagged creations consult the hint groups
// (cmd/jsplace output) before asking the directory.  The group holding
// the driver vertex anchors to the home node; other groups pin to the
// node their first member lands on.  nil disarms.
func (js *JS) InstallPlacementHints(h *PlacementHints) {
	js.app.InstallPlacementHints(h)
}

// NewObjectTagged is NewObject for a tagged creation site: site and idx
// name the instance in the workload's static affinity graph, so the
// runtime can place it with its co-location group (DESIGN.md §14).
// Without installed hints (or on a hint miss) the placement degrades to
// load-only selection; an explicit *Node still wins over any hint.
func (js *JS) NewObjectTagged(site string, idx int, class string, where Component, constr *Constraints) (*Object, error) {
	o, err := js.app.NewObjectTagged(js.p, site, idx, class, where, constr)
	if err != nil {
		return nil, err
	}
	return &Object{o: o, js: js}, nil
}

// NewObjectNear creates an object co-located with another one — the
// paper's "generate obj1 on the same node where obj2 has been generated"
// (§4.4).  Objects that interact heavily should be mapped together; see
// examples/metacomputing for what ignoring this costs.
func (js *JS) NewObjectNear(class string, other *Object, constr *Constraints) (*Object, error) {
	node, err := other.Node()
	if err != nil {
		return nil, err
	}
	return js.NewObject(class, node, constr)
}

// Load re-materializes a stored object ("JS.load(key)", §4.7) with
// NewObject placement rules.
func (js *JS) Load(key string, where Component, constr *Constraints) (*Object, error) {
	o, err := js.app.Load(js.p, key, where, constr)
	if err != nil {
		return nil, err
	}
	return &Object{o: o, js: js}, nil
}

// SInvoke performs a synchronous (blocking) method invocation (§4.5).
func (o *Object) SInvoke(method string, args ...any) (any, error) {
	return o.o.SInvoke(o.js.p, method, args...)
}

// AInvoke performs an asynchronous invocation, returning a result handle
// immediately (§4.5).
func (o *Object) AInvoke(method string, args ...any) (*ResultHandle, error) {
	h, err := o.o.AInvoke(o.js.p, method, args...)
	if err != nil {
		return nil, err
	}
	return &ResultHandle{h: h, js: o.js}, nil
}

// OInvoke performs a one-sided invocation: no result, no completion wait
// (§4.5).
func (o *Object) OInvoke(method string, args ...any) error {
	return o.o.OInvoke(o.js.p, method, args...)
}

// Migrate moves the object ("obj.migrate(...)", §4.6): nil/nil lets JRS
// pick; a *Node pins the target; a component restricts it; constraints
// filter candidates.
func (o *Object) Migrate(where Component, constr *Constraints) error {
	return o.o.Migrate(o.js.p, where, constr)
}

// Replicate installs a read-replication policy on the object: N replica
// copies are placed (spread over sites when the installation has them),
// the methods named in the policy are routed to the nearest live replica,
// writes keep going to the primary and propagate per the policy's mode,
// and a primary failure promotes the freshest surviving replica under
// the same handle.  Re-replicating replaces the existing set.
//
// The mode fixes what a write acknowledgement means.  ReplicaStrong
// acks only after every replica applied the write: no acked write is
// lost to a primary crash (promotion elects a copy that has it).
// ReplicaEventual acks after the primary alone executed it; if the
// primary crashes before the asynchronous update reaches any replica,
// that acked write is gone from every surviving copy.  Applications
// that cannot afford to lose acked writes must use ReplicaStrong.
func (o *Object) Replicate(pol ReplicaPolicy) error {
	return o.o.Replicate(o.js.p, pol)
}

// ReplicaSets lists this application's materialized replica sets.
func (js *JS) ReplicaSets() []ReplicaSetInfo {
	return js.app.ReplicaSets()
}

// Free releases the object ("obj.free()", §4.4).
func (o *Object) Free() error { return o.o.Free(o.js.p) }

// Store saves the object to external storage and returns its key
// ("obj.store([key])", §4.7).
func (o *Object) Store(key string) (string, error) { return o.o.Store(o.js.p, key) }

// Persist marks the object durable on an environment with a write-ahead
// log (EnvOptions.Durability): every state-changing invocation reaches
// stable storage before its ack, so the object survives node crashes
// and whole-cluster restarts with all acknowledged writes intact.
// reads lists methods durability treats as read-only.
func (o *Object) Persist(reads ...string) error { return o.o.Persist(o.js.p, reads...) }

// Ref returns the first-order handle for passing to other objects.
func (o *Object) Ref() (Ref, error) { return o.o.Ref() }

// NodeName returns the host currently holding the object.
func (o *Object) NodeName() (string, error) { return o.o.NodeName() }

// Node returns the hosting node as a placement component
// ("obj.getNode()").
func (o *Object) Node() (*Node, error) { return o.o.Node(o.js.p) }

// Class returns the object's class name.
func (o *Object) Class() string { return o.o.Class() }

// RemoteRef is an invocable wrapper around a first-order handle —
// either one received from another object/application or the handle of
// a class's static instance.
type RemoteRef struct {
	ref Ref
	js  *JS
}

// Wrap makes a received first-order handle invocable in this session.
func (js *JS) Wrap(ref Ref) *RemoteRef { return &RemoteRef{ref: ref, js: js} }

// Static resolves the class's per-installation static instance (created
// on first use), the paper's announced statics extension (§7): the
// instance's exported fields are the class's static variables and its
// methods the static methods, shared by every application.
func (js *JS) Static(class string) (*RemoteRef, error) {
	ref, err := js.app.StaticRef(js.p, class)
	if err != nil {
		return nil, err
	}
	return &RemoteRef{ref: ref, js: js}, nil
}

// Ref returns the underlying first-order handle.
func (r *RemoteRef) Ref() Ref { return r.ref }

// SInvoke performs a synchronous invocation through the handle,
// transparently re-resolving the object's location if it has migrated.
func (r *RemoteRef) SInvoke(method string, args ...any) (any, error) {
	return r.js.app.Runtime().InvokeRef(r.js.p, r.ref, method, args)
}

// AInvoke performs an asynchronous invocation through the handle.
func (r *RemoteRef) AInvoke(method string, args ...any) (*ResultHandle, error) {
	h := newWrappedHandle(r.js)
	app := r.js.app
	ref := r.ref
	app.World().Sched().Spawn("ainvoke-ref", func(p sched.Proc) {
		res, err := app.Runtime().InvokeRefTraced(p, 0, trace.SpanAsync, ref, method, args)
		h.h.Deliver(res, err)
	})
	return h, nil
}

// With rebinds the object handle to another session of the same
// application (a JS obtained from Spawn).  Handles are bound to the
// proc of the session that created them; a spawned worker must rebind
// before invoking, exactly as each paper AppOA thread drives its own
// RMIs.
func (o *Object) With(js *JS) *Object {
	return &Object{o: o.o, js: js}
}

// ResultHandle is the future returned by AInvoke.
type ResultHandle struct {
	h  *core.Handle
	js *JS
}

// newWrappedHandle builds an unresolved handle bound to a session.
func newWrappedHandle(js *JS) *ResultHandle {
	return &ResultHandle{h: core.NewHandle(js.app.World().Sched()), js: js}
}

// IsReady reports whether the result has arrived ("handle.isReady()").
func (h *ResultHandle) IsReady() bool { return h.h.IsReady() }

// Result blocks until the result is available ("handle.getResult()").
func (h *ResultHandle) Result() (any, error) { return h.h.Result(h.js.p) }

// ---------------------------------------------------------------------
// Shard groups.

// ShardGroup partitions one logical object's key space over S shard
// primaries via consistent hashing; each shard carries its own replica
// set.  Invocations are routed by key, reads are coalesced on the
// router, and Grow/Evacuate rebalance the ring deterministically.
type ShardGroup struct {
	g  *core.ShardGroup
	js *JS
}

// NewShardGroup creates spec.Shards shard primaries of the given class
// spread over the installation, replicates each one under
// spec.Replication, and builds the hash ring over them.
func (js *JS) NewShardGroup(name, class string, spec ShardSpec) (*ShardGroup, error) {
	g, err := js.app.NewShardGroup(js.p, name, class, spec)
	if err != nil {
		return nil, err
	}
	return &ShardGroup{g: g, js: js}, nil
}

// ShardGroups lists the application's shard groups sorted by name.
func (js *JS) ShardGroups() []ShardGroupInfo { return js.app.ShardGroups() }

// Invoke routes a keyed invocation to the owning shard: writes go to
// the shard primary, read-only methods ride the shard's replica router
// and identical concurrent reads are coalesced into one upstream RMI.
func (g *ShardGroup) Invoke(key, method string, args ...any) (any, error) {
	return g.g.Invoke(g.js.p, key, method, args...)
}

// InvokeClass is Invoke with a caller-declared request class: the
// request enrolls in SLO accounting under class instead of the implicit
// "read"/"write", and passes through the group's admission controller —
// a currently-shed class is refused immediately with ErrOverload.
func (g *ShardGroup) InvokeClass(class, key, method string, args ...any) (any, error) {
	return g.g.InvokeClass(g.js.p, class, key, method, args...)
}

// AInvoke is the asynchronous variant of Invoke.
func (g *ShardGroup) AInvoke(key, method string, args ...any) *ResultHandle {
	return g.AInvokeClass("", key, method, args...)
}

// AInvokeClass is the asynchronous variant of InvokeClass.
func (g *ShardGroup) AInvokeClass(class, key, method string, args ...any) *ResultHandle {
	h := newWrappedHandle(g.js)
	cg := g.g
	g.js.app.World().Sched().Spawn("ainvoke-shard:"+cg.Name(), func(p sched.Proc) {
		res, err := cg.InvokeClass(p, class, key, method, args...)
		h.h.Deliver(res, err)
	})
	return h
}

// SetAdmission installs (or replaces) the group's admission policy:
// when a surviving class's SLO burn rate crosses the policy threshold,
// the router sheds the lowest-priority classes first, re-admitting them
// as the burn subsides.
func (g *ShardGroup) SetAdmission(pol AdmissionPolicy) error {
	return g.g.SetAdmission(pol)
}

// Admission snapshots the group's admission controller (ok=false when
// no policy is installed).
func (g *ShardGroup) Admission() (AdmissionState, bool) { return g.g.Admission() }

// Grow adds one shard on the given node ("" lets JRS pick) and hands
// off the ~K/S keys the ring reassigns to it.
func (g *ShardGroup) Grow(node string) (string, error) {
	return g.g.Grow(g.js.p, node)
}

// Evacuate migrates every shard primary off the node (the shard keeps
// its ring identity; only its hosting changes).
func (g *ShardGroup) Evacuate(node string) error {
	return g.g.Evacuate(g.js.p, node)
}

// Persist marks every shard of the group durable (ring order); the
// group's consistent-hash membership is recorded in the WAL manifest,
// so a cluster restart reproduces key ownership exactly.  reads
// defaults to the spec's declared read methods.
func (g *ShardGroup) Persist(reads ...string) error { return g.g.Persist(g.js.p, reads...) }

// Heat reports each shard's k hottest keys (space-saving counts;
// deterministic order: shards in ring order, keys by count then name).
func (g *ShardGroup) Heat(k int) []ShardHeat { return g.g.Heat(k) }

// PublishHeat exports each shard's k hottest keys as
// js_shard_key_heat{group,shard,key} gauges.
func (g *ShardGroup) PublishHeat(k int) { g.g.PublishHeat(k) }

// Name returns the group name.
func (g *ShardGroup) Name() string { return g.g.Name() }

// Owner returns the shard name owning a key.
func (g *ShardGroup) Owner(key string) string { return g.g.Owner(key) }

// Shards lists the shard names in ring order.
func (g *ShardGroup) Shards() []string { return g.g.Shards() }

// Info snapshots the group's shards, placements, and replica sets.
func (g *ShardGroup) Info() ShardGroupInfo { return g.g.Info() }

// With rebinds the group handle to another session of the same
// application (a JS obtained from Spawn), like Object.With.
func (g *ShardGroup) With(js *JS) *ShardGroup {
	return &ShardGroup{g: g.g, js: js}
}
