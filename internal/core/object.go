package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sync"

	"jsymphony/internal/nas"
	"jsymphony/internal/params"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
)

// Object is an application-side handle to a JavaSymphony object — the
// paper's JSObj (§4.4).  All methods must be called with a proc of the
// application's world.
type Object struct {
	app *App
	id  uint64
}

// ErrFreedObject is returned for operations on freed objects.
var ErrFreedObject = errors.New("core: object has been freed")

// NewObject creates an object of the given class (§4.4):
//
//   - comp == nil: JRS picks the node (lowest load, best resources),
//     optionally restricted by constr and the JS-Shell defaults.
//   - comp == *virtarch.Node: the object goes exactly there.
//   - comp == cluster/site/domain: JRS picks the best node within the
//     component, optionally restricted by constr.
//
// Co-location ("generate obj1 on the same node where obj2 has been
// generated") is expressed by passing obj2.Node(p).
func (a *App) NewObject(p sched.Proc, class string, comp virtarch.Component, constr *params.Constraints) (*Object, error) {
	if _, ok := a.world.registry.Lookup(class); !ok {
		return nil, fmt.Errorf("core: unknown class %q", class)
	}
	candidates, err := a.placementCandidates(p, comp, constr)
	if err != nil {
		return nil, err
	}
	return a.createOn(p, class, comp, constr, candidates)
}

// placementCandidates resolves a placement spec to an ordered node list.
func (a *App) placementCandidates(p sched.Proc, comp virtarch.Component, constr *params.Constraints) ([]string, error) {
	if n, ok := comp.(*virtarch.Node); ok {
		names := n.NodeNames()
		if len(names) == 0 {
			return nil, errors.New("core: placement node has been freed")
		}
		return names, nil
	}
	eff := constr
	if eff == nil {
		eff = a.world.DefaultConstraints()
	}
	opts := nas.SelectOpts{N: 1, Constr: eff, Spread: false, Reserve: false}
	if comp != nil {
		among := comp.NodeNames()
		if len(among) == 0 {
			return nil, errors.New("core: placement component has no nodes")
		}
		opts.Among = among
		opts.N = min(3, len(among))
	} else {
		opts.N = 3
	}
	nodes, err := nas.SelectNodes(p, a.rt.st, a.world.dirNode, opts)
	if err == nil {
		return nodes, nil
	}
	// Fewer candidates than asked for: retry for a single best node.
	opts.N = 1
	return nas.SelectNodes(p, a.rt.st, a.world.dirNode, opts)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// newRef allocates the next handle of this application for class.
func (a *App) newRef(class string) Ref {
	a.mu.Lock()
	a.seq++
	id := a.seq
	a.mu.Unlock()
	return Ref{App: a.id, ID: id, Class: class, Origin: a.rt.Node()}
}

// entry returns the table row for an object handle.
func (a *App) entry(id uint64) (*objEntry, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e, ok := a.objs[id]
	if !ok {
		return nil, errors.New(errObjUnknown)
	}
	if e.freed {
		return nil, ErrFreedObject
	}
	return e, nil
}

// locate returns the object's handle and current host, read together
// under the table lock: migration, re-homing and promotion rewrite the
// location while other sessions of the application keep invoking.
func (a *App) locate(id uint64) (Ref, string, error) {
	e, err := a.entry(id)
	if err != nil {
		return Ref{}, "", err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return e.ref, e.location, nil
}

// Ref returns the object's first-order handle for passing to other
// objects and applications.
func (o *Object) Ref() (Ref, error) {
	e, err := o.app.entry(o.id)
	if err != nil {
		return Ref{}, err
	}
	return e.ref, nil
}

// Class returns the object's class name.
func (o *Object) Class() string {
	e, err := o.app.entry(o.id)
	if err != nil {
		return ""
	}
	return e.ref.Class
}

// NodeName returns the node currently hosting the object.
func (o *Object) NodeName() (string, error) {
	_, loc, err := o.app.locate(o.id)
	return loc, err
}

// Node returns the hosting node as an architecture component, for
// co-location ("new JSObj(class, obj2.getNode())") and for getSysParam.
func (o *Object) Node(p sched.Proc) (*virtarch.Node, error) {
	name, err := o.NodeName()
	if err != nil {
		return nil, err
	}
	return virtarch.NewNamedNode(o.app.Allocator(p), name)
}

// SInvoke is the synchronous (blocking) method invocation of §4.5.
func (o *Object) SInvoke(p sched.Proc, method string, args ...any) (any, error) {
	return o.app.invokeObject(p, o.id, method, args, trace.SpanSync, "", "")
}

// AInvoke is the asynchronous invocation of §4.5: it returns immediately
// with a handle on which the result can be tested and awaited.
func (o *Object) AInvoke(p sched.Proc, method string, args ...any) (*Handle, error) {
	if _, err := o.app.entry(o.id); err != nil {
		return nil, err
	}
	h := newHandle(o.app.world.s)
	// "One thread for every asynchronous method invocation in order to
	// overcome blocking Java/RMI" (§5.2).
	o.app.world.s.Spawn(fmt.Sprintf("ainvoke:%s/%d.%s", o.app.id, o.id, method), func(wp sched.Proc) {
		res, err := o.app.invokeObject(wp, o.id, method, args, trace.SpanAsync, "", "")
		h.deliver(res, err)
	})
	return h, nil
}

// OInvoke is the one-sided invocation of §4.5: no result, no completion
// wait, no result bookkeeping — and therefore no delivery guarantee: a
// one-sided call racing a migration of the target may be dropped, just
// as the paper's oinvoke gives the caller nothing to detect it with.
func (o *Object) OInvoke(p sched.Proc, method string, args ...any) error {
	ref, loc, err := o.app.locate(o.id)
	if err != nil {
		return err
	}
	sr := o.app.rt.beginSpan(0, trace.SpanOneway, ref, method)
	req := invokeReq{App: ref.App, ID: ref.ID, Method: method, Args: args, Span: sr.span.ID}
	body, err := rmi.Marshal(req)
	if err != nil {
		return err
	}
	err = o.app.rt.st.Post(p, loc, PubService, "invoke", body)
	// A one-sided span has no service/wire decomposition: the caller only
	// observes the local post.
	sr.finish(loc, 0, 0, err)
	return err
}

// invokeObject performs a synchronous invocation with migration-aware
// retry: while the object is migrating (busy) or has just moved, the
// caller blocks-and-retries — matching the paper's blocking RMI, which
// simply waits out a migration — re-reading the location from this very
// table (our own migrations update it).  The total wait is bounded by
// invokeTimeout, like any other invocation.  The whole operation is
// recorded as one span of the given kind; failed attempts and backoff
// show up as retry time, each one also cause-linked as its own retry
// span.  class, when set, enrolls the span in the SLO engine's
// per-class accounting.
func (a *App) invokeObject(p sched.Proc, id uint64, method string, args []any, kind trace.SpanKind, shard, class string) (any, error) {
	first, err := a.entry(id)
	if err != nil {
		return nil, err
	}
	sr := a.rt.beginSpan(0, kind, first.ref, method)
	sr.span.Shard = shard
	sr.span.Class = class
	var lastErr error
	var loc string
	var avoid map[string]bool // replica members that deflected or timed out
	deadline := p.Sched().Now() + invokeTimeout
	backoff := 2 * time.Millisecond
	for p.Sched().Now() < deadline {
		e, err := a.entry(id)
		if err != nil {
			sr.finish(loc, 0, 0, err)
			return nil, err
		}
		a.mu.Lock()
		loc = e.location
		set := e.rset()
		a.mu.Unlock()
		// A declared read on a replicated object routes to the nearest
		// live set member; writes (and everything on unreplicated objects)
		// target the primary location.
		target := loc
		read := !set.Empty() && set.IsRead(method)
		if read {
			if n, ok := a.world.routeRead(refKey(e.ref.App, e.ref.ID), a.rt.Node(), set, avoid); ok {
				target = n
			}
		}
		sr.beginAttempt()
		resp, err := a.rt.invokeAt(p, target, e.ref, method, args, sr.span.ID, read, class)
		if err == nil {
			sr.span.Staleness = resp.Staleness
			sr.span.Durability = resp.Durability
			a.world.noteRead(read, resp)
			sr.finish(target, resp.Service, resp.LeaseWait, nil)
			return resp.Result, nil
		}
		lastErr = err
		// Retryable: busy (migrating), moved (stale table entry — our own
		// recovery updates it), stale (replica lost its primary; promotion
		// repoints the set), and timed out (the host may have crashed;
		// backing off lets detection and recovery repoint the entry).
		if !rmi.IsRemote(err, errObjBusy) && !rmi.IsRemote(err, errObjMoved) &&
			!rmi.IsRemote(err, errReplicaStale) && !errors.Is(err, rmi.ErrTimeout) {
			sr.finish(target, 0, 0, err)
			return nil, err
		}
		sr.noteRetry(target, err)
		if read && target != loc {
			// Fail over to another set member right away; once the whole
			// set has been tried, back off and start over against the
			// (by then repaired) table entry.
			if avoid == nil {
				avoid = make(map[string]bool)
			}
			avoid[target] = true
			if len(avoid) < len(set.Members()) {
				continue
			}
			avoid = nil
		}
		p.Sleep(backoff)
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
	err = fmt.Errorf("core: invocation of %q never caught up with migration: %w", method, lastErr)
	sr.finish(loc, 0, 0, err)
	return nil, err
}

// Free releases the object (§4.4: "an object if no longer needed should
// be released by the programmer").  Freeing twice is a no-op.
func (o *Object) Free(p sched.Proc) error {
	e, err := o.app.entry(o.id)
	if errors.Is(err, ErrFreedObject) {
		return nil
	}
	if err != nil {
		return err
	}
	return o.app.freeEntry(p, e)
}

func (a *App) freeEntry(p sched.Proc, e *objEntry) error {
	a.mu.Lock()
	if e.freed {
		a.mu.Unlock()
		return nil
	}
	e.freed = true
	wasDurable := e.durable
	ref, loc := e.ref, e.location
	a.mu.Unlock()
	a.dropReplicas(p, e)
	body := rmi.MustMarshal(freeReq{App: ref.App, ID: ref.ID})
	_, err := a.rt.st.Call(p, loc, PubService, "free", body, 10*time.Second)
	if wasDurable {
		// The host wrote the tombstone; the manifest must stop listing the
		// object too, or a cluster restart would try to resurrect it.
		a.writeDurManifest(p)
	}
	return err
}

// Handle is the future returned by AInvoke (§4.5).
type Handle struct {
	q  sched.Queue
	mu sync.Mutex

	got bool
	res any
	err error
}

type handleMsg struct {
	res any
	err error
}

func newHandle(s sched.Sched) *Handle {
	return &Handle{q: s.NewQueue("result-handle")}
}

// NewHandle returns an unresolved handle for layers that build their own
// asynchronous invocations (the public RemoteRef API).
func NewHandle(s sched.Sched) *Handle { return newHandle(s) }

func (h *Handle) deliver(res any, err error) {
	h.q.Put(handleMsg{res: res, err: err}, 0)
}

// Deliver resolves the handle with a result or error; exactly one
// Deliver per handle.
func (h *Handle) Deliver(res any, err error) { h.deliver(res, err) }

// IsReady reports whether the result has arrived (handle.isReady).
func (h *Handle) IsReady() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.got || h.q.Len() > 0
}

// Result blocks until the result is available and returns it
// (handle.getResult).  It may be called repeatedly and from multiple
// procs; every caller observes the same outcome.
func (h *Handle) Result(p sched.Proc) (any, error) {
	h.mu.Lock()
	if h.got {
		defer h.mu.Unlock()
		return h.res, h.err
	}
	h.mu.Unlock()
	v, ok := p.Recv(h.q)
	h.mu.Lock()
	if !h.got {
		if !ok {
			h.mu.Unlock()
			return nil, errors.New("core: result handle closed")
		}
		m := v.(handleMsg)
		h.got, h.res, h.err = true, m.res, m.err
	}
	res, err := h.res, h.err
	h.mu.Unlock()
	// Cascade-wake any other proc blocked in Recv on the same handle.
	h.q.Put(handleMsg{res: res, err: err}, 0)
	return res, err
}

// ---------------------------------------------------------------------
// Migration (§4.6) and persistence (§4.7).

// Migrate moves the object according to the paper's migrate variants:
//
//   - comp == nil, constr == nil: JRS picks a node (lowest load).
//   - comp == nil, constr != nil: JRS picks a node honoring constr.
//   - comp == *virtarch.Node: move exactly there.
//   - comp == cluster/site/domain: JRS picks within, honoring constr.
func (o *Object) Migrate(p sched.Proc, comp virtarch.Component, constr *params.Constraints) error {
	e, err := o.app.entry(o.id)
	if err != nil {
		return err
	}
	a := o.app
	var dest string
	if n, ok := comp.(*virtarch.Node); ok {
		names := n.NodeNames()
		if len(names) == 0 {
			return errors.New("core: migration target node freed")
		}
		dest = names[0]
	} else {
		eff := constr
		if eff == nil {
			eff = a.world.DefaultConstraints()
		}
		// Exclude the current host and, for a replicated object, its
		// replica-set members (anti-affinity — see evacuate).
		a.mu.Lock()
		excl := append([]string{e.location}, e.replicas...)
		a.mu.Unlock()
		opts := nas.SelectOpts{N: 1, Constr: eff, Exclude: excl, Reserve: false}
		if comp != nil {
			opts.Among = comp.NodeNames()
		}
		nodes, err := nas.SelectNodes(p, a.rt.st, a.world.dirNode, opts)
		if err != nil {
			return fmt.Errorf("core: no migration target: %w", err)
		}
		dest = nodes[0]
	}
	return a.migrateEntry(p, e, dest)
}

// migrateEntry runs the migration protocol of Fig. 3 for one object.
func (a *App) migrateEntry(p sched.Proc, e *objEntry, dest string) error {
	a.mu.Lock()
	src := e.location
	ref := e.ref
	a.mu.Unlock()
	if dest == src {
		return nil
	}
	// Step 1: ask pa1 to move the object to pa2; pa1 waits for
	// quiescence, transfers, and returns after pa2 confirms (steps 2-3).
	// The quiescence wait inside migrateOut is bounded by the longest
	// in-flight method, so the timeout mirrors invokeTimeout.
	body := rmi.MustMarshal(migrateOutReq{App: ref.App, ID: ref.ID, Dest: dest})
	if _, err := a.rt.st.Call(p, src, PubService, "migrateOut", body, invokeTimeout); err != nil {
		return err
	}
	// Step 4: the origin AppOA updates its table; stale invocations now
	// resolve through it.
	a.mu.Lock()
	e.location = dest
	replicated := e.pol != nil && len(e.replicas) > 0
	durable := e.durable
	a.mu.Unlock()
	if replicated {
		// The new host starts with a fresh update counter; re-seed the set
		// from it so replica versions restart in step with the primary.
		a.reconfigureAfterMove(p, e)
	}
	if durable {
		// The manifest records the recorded home node; keep it current so
		// a cluster restart places the object where it last lived.
		a.writeDurManifest(p)
	}
	a.world.emit(trace.Event{Kind: trace.ObjMigrated, Node: dest, App: ref.App, Obj: ref.ID, Detail: src + " -> " + dest})
	return nil
}

// Store saves the object to external storage under key ("" lets JRS
// generate one) and returns the key (§4.7).
func (o *Object) Store(p sched.Proc, key string) (string, error) {
	ref, loc, err := o.app.locate(o.id)
	if err != nil {
		return "", err
	}
	body := rmi.MustMarshal(storeReq{App: ref.App, ID: ref.ID, Key: key})
	resp, err := o.app.rt.st.Call(p, loc, PubService, "store", body, time.Minute)
	if err != nil {
		return "", err
	}
	var k string
	if err := rmi.Unmarshal(resp, &k); err != nil {
		return "", err
	}
	return k, nil
}

// Load re-materializes a stored object as a fresh JSObj of this
// application (§4.7: "JSObj obj = (JSObj)JS.load(string)").  Placement
// follows the same rules as NewObject.
func (a *App) Load(p sched.Proc, key string, comp virtarch.Component, constr *params.Constraints) (*Object, error) {
	rec, err := a.world.storage.Get(key)
	if err != nil {
		return nil, err
	}
	candidates, err := a.placementCandidates(p, comp, constr)
	if err != nil {
		return nil, err
	}
	ref := a.newRef(rec.Class)
	obj, err := a.adopt(p, ref, storedImage(ref, key, 10*time.Second), candidates,
		objEntry{comp: comp, constr: constr}, rec.Replica)
	if err != nil {
		return obj, fmt.Errorf("core: load %q: %w", key, err)
	}
	return obj, nil
}

// Objects returns handles of all live objects of the application.
func (a *App) Objects() []*Object {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*Object, 0, len(a.objs))
	for id, e := range a.objs {
		if !e.freed {
			out = append(out, &Object{app: a, id: id})
		}
	}
	// The handle list is a caller-visible snapshot (shell listings,
	// experiment sweeps); sort so it does not leak map order.
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
