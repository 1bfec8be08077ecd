package core

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"sync"

	"jsymphony/internal/codebase"
	"jsymphony/internal/metrics"
	"jsymphony/internal/nas"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/trace"
	"jsymphony/internal/wal"
)

// Runtime is the per-node JRS installation: the RMI station, the node's
// class store, its network agent, and the public object agent (PubOA)
// hosting every object instance generated on this node.
type Runtime struct {
	world *World
	st    *rmi.Station
	agent *nas.Agent
	store *codebase.Store
	mach  *simnet.Machine // nil outside the simulation

	// dur is the node's durability engine (nil when the world was built
	// without DurabilityOptions): the write-ahead log front and media.
	dur *durState

	mu        sync.Mutex
	hosted    map[objKey]*hostedObj
	locCache  map[objKey]string      // last known location of foreign objects
	rsetCache map[objKey]replica.Set // last known replica sets of foreign objects
}

type objKey struct {
	app string
	id  uint64
}

// hostedObj is one remote-objects-table entry (paper §5.2): the instance,
// where it came from, and the in-flight method bookkeeping that delays
// migration and persistence.
type hostedObj struct {
	ref       Ref
	instance  any
	executing int
	// rankExec counts the in-flight invocations per admission rank
	// (index = position in the policy's Classes list, 0 = most
	// important).  The priority mailbox subtracts lower-priority
	// occupancy from the bound check, so bronze saturating the slots
	// can never exclude gold; unranked traffic is not tracked here and
	// counts against every class.  Grown lazily; len 0 until a ranked
	// request executes.
	rankExec  []int
	migrating bool       // state is being serialized / shipped
	wanted    bool       // a migration or store is waiting for quiescence
	repl      *replState // nil unless the object is replicated (see replica.go)

	// Durability (see durable.go).  durVer orders this object's WAL
	// records; on a replicated object the primary bumps it under the fan
	// lock and ships it with each propagation, so every member logs the
	// same state under the same version and crash replay can merge the
	// media by max-Ver.
	durable  bool
	durReads map[string]bool // methods that do not mutate state
	durVer   uint64
}

// Ctx gives application methods access to their execution context.  A
// method whose first parameter is *core.Ctx receives it automatically on
// invocation; the remaining parameters come from the caller's argument
// array.
type Ctx struct {
	P    sched.Proc
	RT   *Runtime
	Span uint64 // span id of the invocation executing this method (0 outside JRS)
}

// Node returns the node the method is executing on ("" when the object
// is used outside JRS, e.g. as a plain local value).
func (c *Ctx) Node() string {
	if c.RT == nil {
		return ""
	}
	return c.RT.Node()
}

// Compute charges the enclosing node's CPU with the given number of
// floating-point operations.  In the simulation this advances virtual
// time under the machine's load; in real deployments the method's own Go
// code is the computation and Compute is a no-op, as it is when the
// object is used outside JRS.
func (c *Ctx) Compute(flops float64) {
	if c.RT == nil {
		return
	}
	c.RT.Compute(c.P, flops)
}

// Invoke performs a synchronous invocation on another object through its
// first-order handle (an object calling an object, §5.2).  The outgoing
// call's span parents to the span executing this method, so causality
// chains survive the hop.
func (c *Ctx) Invoke(ref Ref, method string, args []any) (any, error) {
	return c.RT.InvokeRefTraced(c.P, c.Span, trace.SpanSync, ref, method, args)
}

// newRuntime wires a node runtime; the station must not be started yet.
func newRuntime(w *World, st *rmi.Station, agent *nas.Agent, mach *simnet.Machine) *Runtime {
	rt := &Runtime{
		world:     w,
		st:        st,
		agent:     agent,
		store:     codebase.NewStore(w.registry),
		mach:      mach,
		hosted:    make(map[objKey]*hostedObj),
		locCache:  make(map[objKey]string),
		rsetCache: make(map[objKey]replica.Set),
	}
	st.Register(PubService, rt.handlePub)
	return rt
}

// Node returns the runtime's node name.
func (rt *Runtime) Node() string { return rt.st.Node() }

// Station returns the node's RMI station.
func (rt *Runtime) Station() *rmi.Station { return rt.st }

// Agent returns the node's network agent.
func (rt *Runtime) Agent() *nas.Agent { return rt.agent }

// Store returns the node's class store.
func (rt *Runtime) Store() *codebase.Store { return rt.store }

// World returns the owning world.
func (rt *Runtime) World() *World { return rt.world }

// Compute charges this node's CPU with flops (simulation only).
func (rt *Runtime) Compute(p sched.Proc, flops float64) {
	if rt.mach == nil {
		return
	}
	if a := sched.Actor(p); a != nil {
		rt.mach.Compute(a, flops)
	}
}

// Crash models the JRS process on this node dying with its machine: the
// remote-objects table and the foreign-location cache vanish.  After a
// restart, invocations arriving here find nothing hosted and fail with
// the moved sentinel, exactly as on a freshly booted node; callers then
// re-resolve through the origin AppOA, which recovery has repointed.
func (rt *Runtime) Crash() {
	rt.mu.Lock()
	rt.hosted = make(map[objKey]*hostedObj)
	rt.locCache = make(map[objKey]string)
	rt.rsetCache = make(map[objKey]replica.Set)
	rt.mu.Unlock()
	rt.agent.SetObjects(0)
}

// Objects returns the number of hosted objects.
func (rt *Runtime) Objects() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.hosted)
}

// Instance returns the live instance of a hosted object, for tests and
// the shell's inspection commands.
func (rt *Runtime) Instance(ref Ref) (any, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	h, ok := rt.hosted[objKey{ref.App, ref.ID}]
	if !ok {
		return nil, false
	}
	return h.instance, true
}

// updateObjectGauge feeds the jrs.objects parameter to the node's agent.
func (rt *Runtime) updateObjectGauge() {
	rt.mu.Lock()
	n := len(rt.hosted)
	rt.mu.Unlock()
	rt.agent.SetObjects(n)
}

// handlePub dispatches PubService methods.
func (rt *Runtime) handlePub(p sched.Proc, from, method string, body []byte) ([]byte, error) {
	switch method {
	case "create":
		var req createReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return nil, rt.create(req.Ref)
	case "invoke":
		var req invokeReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		resp, err := rt.invoke(p, req)
		if err != nil {
			return nil, err
		}
		return rmi.MustMarshal(resp), nil
	case "migrateOut":
		var req migrateOutReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return nil, rt.migrateOut(p, req)
	case "migrateIn":
		var req migrateInReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return nil, rt.migrateIn(req)
	case "free":
		var req freeReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		rt.freeTraced(objKey{req.App, req.ID})
		return nil, nil
	case "store":
		var req storeReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		key, err := rt.persist(p, req)
		if err != nil {
			return nil, err
		}
		return rmi.MustMarshal(key), nil
	case "load":
		var req loadReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return nil, rt.loadStored(req)
	case "loadCodebase":
		var req codebaseReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		newBytes, err := rt.store.Load(req.Classes...)
		if err == nil {
			rt.world.emit(trace.Event{
				Kind: trace.CodebaseLoaded, Node: rt.Node(),
				Detail: fmt.Sprintf("%d classes, %d new bytes", len(req.Classes), newBytes),
			})
		}
		return nil, err
	case "replicaConfigure":
		var req replicaConfigureReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return nil, rt.replicaConfigure(req)
	case "replicaUpdate":
		var req replicaUpdateReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return nil, rt.replicaApply(p, req)
	case "durable":
		var req durableReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return nil, rt.makeDurable(req)
	case "replicaAuthBatch":
		var b rmi.Batch
		if err := rmi.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		applied, err := rt.replicaAuthBatch(b)
		if err != nil {
			return nil, err
		}
		return rmi.MustMarshal(applied), nil
	case "replicaDrop":
		var req replicaDropReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		rt.replicaDrop(objKey{req.App, req.ID})
		return nil, nil
	case "replicaSnapshot":
		var req replicaSnapshotReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		resp, err := rt.replicaSnapshot(p, objKey{req.App, req.ID})
		if err != nil {
			return nil, err
		}
		return rmi.MustMarshal(resp), nil
	case "replicaRenew":
		var req replicaRenewReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		resp, err := rt.replicaRenew(p, objKey{req.App, req.ID})
		if err != nil {
			return nil, err
		}
		return rmi.MustMarshal(resp), nil
	}
	return nil, fmt.Errorf("oas: puboa has no method %q", method)
}

// create instantiates an object of ref's class on this node.
func (rt *Runtime) create(ref Ref) error {
	inst, err := rt.store.New(ref.Class)
	if err != nil {
		return err
	}
	rt.bind(inst)
	key := objKey{ref.App, ref.ID}
	rt.mu.Lock()
	if _, dup := rt.hosted[key]; dup {
		rt.mu.Unlock()
		return fmt.Errorf("oas: object %s/%d already exists", ref.App, ref.ID)
	}
	rt.hosted[key] = &hostedObj{ref: ref, instance: inst}
	rt.mu.Unlock()
	rt.updateObjectGauge()
	rt.world.emit(trace.Event{Kind: trace.ObjCreated, Node: rt.Node(), App: ref.App, Obj: ref.ID, Detail: ref.Class})
	return nil
}

// RuntimeAware objects receive their hosting runtime on creation,
// migration, and load, letting methods reach Ctx-free facilities.
type RuntimeAware interface {
	BindRuntime(rt *Runtime)
}

func (rt *Runtime) bind(inst any) {
	if ra, ok := inst.(RuntimeAware); ok {
		ra.BindRuntime(rt)
	}
}

var ctxType = reflect.TypeOf((*Ctx)(nil))

// invoke executes a method on a hosted object and reports the scheduler
// time the method body ran (the span's service component).  Invocations
// on an object that has migrated away (or is mid-migration) fail with
// the typed sentinel the caller uses to re-resolve the location (Fig. 4).
//
// Replication hooks in here: declared reads arriving at a read replica
// are served locally (invokeAtReplica); a write executing on a
// replicated primary is serialized against other writes and propagated
// to the replica set before the response leaves (strong mode) or as a
// one-way fan-out (eventual mode).
func (rt *Runtime) invoke(p sched.Proc, req invokeReq) (invokeResp, error) {
	if rt.world.classShed(req.Class) {
		// Arrival check: an admission controller shed this request's
		// class after its router admitted it (the request was on the
		// wire, or in a caller retry loop).  Refuse before it can take
		// a mailbox slot — it would be refused on completion anyway,
		// and executing it only delays the classes still admitted.
		return invokeResp{}, rt.refuseShedClass(req, "arrival")
	}
	rank, ranked := rt.world.classRank(req.Class)
	key := objKey{req.App, req.ID}
	rt.mu.Lock()
	h, ok := rt.hosted[key]
	if !ok {
		rt.mu.Unlock()
		return invokeResp{}, errors.New(errObjMoved)
	}
	if h.migrating || h.wanted {
		// A migration (or store) is in progress or waiting for the
		// object to quiesce.  New invocations yield so back-to-back
		// callers cannot starve it; they retry and re-resolve the
		// location once the object lands (Fig. 4).  This check comes
		// before the queue bound on purpose: a migrating object's
		// mailbox is drained by design, and deflecting with busy (which
		// callers retry) instead of overload (which they must not)
		// keeps migration invisible to admission control.
		rt.mu.Unlock()
		return invokeResp{}, errors.New(errObjBusy)
	}
	if bound := rt.world.queueBound.Load(); bound >= 0 {
		// Bounded priority mailbox: a request is shed when the bound is
		// already filled by work of its own or higher priority —
		// lower-ranked occupancy is subtracted, so bronze saturating
		// the slots can never exclude gold while the admission
		// controller is still reacting.  Unranked traffic (no admission
		// policy names its class) gets the classic class-blind bound,
		// and counts conservatively against every ranked class.  The
		// error wraps rmi.ErrOverload; the prefix survives the wire as
		// a RemoteError message, so errors.Is works on both sides.
		occupied := h.executing
		if ranked {
			for i := rank + 1; i < len(h.rankExec); i++ {
				occupied -= h.rankExec[i]
			}
		}
		if int64(occupied) >= bound {
			rt.mu.Unlock()
			rt.world.emit(trace.Event{Kind: trace.OverloadShed, Node: rt.Node(),
				App: req.App, Obj: req.ID,
				Detail: fmt.Sprintf("%s: %d in flight (bound %d)", req.Method, occupied, bound)})
			rt.world.reg.Counter(metrics.Label("js_core_sheds_total", "node", rt.Node())).Inc()
			return invokeResp{}, fmt.Errorf("%w: %s/%d.%s on %s (%d in flight, bound %d)",
				rmi.ErrOverload, req.App, req.ID, req.Method, rt.Node(), occupied, bound)
		}
	}
	rs := h.repl
	if rs != nil && rs.isReplica {
		rt.mu.Unlock()
		return rt.invokeAtReplica(p, h, req)
	}
	if rs != nil {
		// Fencing: a primary whose write authority lapsed has been (or is
		// about to be) deposed by a promotion it never heard about — a
		// partition cut it off from its AppOA.  Serving anything here
		// could ack state the surviving lineage will never contain, so
		// every call is deflected until the AppOA renews the grant.
		if rs.authorityLapsed(rt.world.s.Now()) {
			rt.mu.Unlock()
			rt.world.reg.Counter("js_replica_auth_rejects_total").Inc()
			return invokeResp{}, errors.New(errObjMoved)
		}
		// A strong-mode primary that dropped every peer as unreachable
		// cannot honor the mode's ack contract; deflect until the AppOA
		// repairs or tears down the set.
		if rs.mode == replica.Strong && len(rs.peers) == 0 {
			rt.mu.Unlock()
			return invokeResp{}, errors.New(errObjMoved)
		}
	}
	// A write on a replicated primary holds the fan lock across
	// execution and propagation: writes serialize with each other, and
	// the state shipped to replicas is a consistent post-write snapshot
	// whose version order matches apply order.
	primaryWrite := rs != nil && len(rs.peers) > 0 && !rs.reads[req.Method]
	// A write whose ack promises synchronous copies — strong mode, or
	// eventual with MinSync > 0 — must be undone if no peer receives it.
	syncWrite := primaryWrite && (rs.mode == replica.Strong || rs.minSync > 0)
	// A state-changing invocation on a durable object is WAL-logged
	// before the ack; declared reads (durable or replica policy) skip
	// the log.
	durWrite := rt.dur != nil && h.durable && !h.durReads[req.Method]
	if rs != nil && rs.reads[req.Method] {
		durWrite = false
	}
	var rset replica.Set
	if rs != nil && len(rs.peers) > 0 {
		rset = rs.setSnapshot(rt.Node())
	}
	h.executing++
	if ranked {
		for len(h.rankExec) <= rank {
			h.rankExec = append(h.rankExec, 0)
		}
		h.rankExec[rank]++
	}
	inst := h.instance
	rt.mu.Unlock()

	defer func() {
		rt.mu.Lock()
		h.executing--
		if ranked {
			h.rankExec[rank]--
		}
		rt.mu.Unlock()
	}()

	var undo []byte
	if primaryWrite {
		// Ranked writes queue for the fan lock in admission-priority
		// order (level 0 is the control plane and unranked traffic), so
		// a gold write never ages behind a burst of queued bronze.
		level := 0
		if ranked {
			level = rank + 1
		}
		rs.fan.lock(p, level)
		defer rs.fan.unlock()
		if rt.world.classShed(req.Class) {
			// Dequeue check: the fan lock is where writes queue, so a
			// write can wait here for several service times — long
			// enough for the admission controller to shed its class.
			// Refusing at dequeue makes escalation drain the doomed
			// backlog in one scheduler tick instead of one service time
			// per queued write, which is what frees mailbox slots for
			// the protected classes during the ramp.
			return invokeResp{}, rt.refuseShedClass(req, "dequeue")
		}
		if syncWrite {
			undo, _ = rmi.Marshal(inst)
		}
	}
	res, service, err := rt.execMethod(p, inst, req)
	if primaryWrite && err == nil {
		_, syncDelivered := rt.propagate(p, h, rs, req.Span)
		if syncWrite && syncDelivered == 0 && undo != nil {
			// No peer saw the write synchronously: acking it would claim
			// durability the set cannot provide (and a fenced-off zombie
			// would claim it into an abandoned lineage).  Undo and deflect.
			if rbErr := rt.rollbackWrite(h, rs, undo); rbErr == nil {
				return invokeResp{}, errors.New(errObjMoved)
			}
		}
	}
	var durStall time.Duration
	if durWrite && err == nil {
		if !primaryWrite {
			// Unreplicated durable write: bump the version here (a
			// replicated write already bumped it inside propagate, under
			// the fan lock, so every member logs the same Ver).
			rt.mu.Lock()
			h.durVer++
			rt.mu.Unlock()
		}
		stall, derr := rt.durLogState(p, h, true)
		if derr != nil {
			// The write never reached stable storage (crash mid-commit).
			// Deflect instead of acking: the caller's retry lands on the
			// recovered object, so no acked write is ever lost.
			return invokeResp{}, errors.New(errObjMoved)
		}
		durStall = stall
	}
	return invokeResp{Result: res, Service: service, RSet: rset, Durability: durStall}, err
}

// refuseShedClass builds the typed refusal for a request whose class an
// admission controller shed while it was in flight or queued, with the
// trace/metrics bookkeeping shared by the arrival and dequeue check
// points.  The message starts with the rmi.ErrOverload text so the
// sentinel survives the wire as a RemoteError, and the caller's retry
// loop returns it unretried (shed-vs-retry contract, DESIGN.md §12).
func (rt *Runtime) refuseShedClass(req invokeReq, where string) error {
	rt.world.emit(trace.Event{Kind: trace.OverloadShed, Node: rt.Node(),
		App: req.App, Obj: req.ID,
		Detail: fmt.Sprintf("%s: class %s shed at %s", req.Method, req.Class, where)})
	rt.world.reg.Counter(metrics.Label("js_core_class_sheds_total", "node", rt.Node())).Inc()
	return fmt.Errorf("%w: class %s refused at %s (%s): shed by admission while in flight",
		rmi.ErrOverload, req.Class, rt.Node(), where)
}

// execMethod runs one method body on an instance, with Ctx injection and
// the per-invocation trace/metrics bookkeeping.
func (rt *Runtime) execMethod(p sched.Proc, inst any, req invokeReq) (any, time.Duration, error) {
	args := req.Args
	// Methods may declare *core.Ctx as their first parameter to access
	// the execution context.
	if m := reflect.ValueOf(inst).MethodByName(req.Method); m.IsValid() {
		if t := m.Type(); t.NumIn() > 0 && t.In(0) == ctxType {
			args = append([]any{&Ctx{P: p, RT: rt, Span: req.Span}}, args...)
		}
	}
	watch := sched.StartWatch(rt.world.s)
	res, err := codebase.Invoke(inst, req.Method, args)
	service := watch.Elapsed()
	rt.world.emit(trace.Event{Kind: trace.ObjInvoked, Node: rt.Node(),
		App: req.App, Obj: req.ID, Detail: req.Method})
	rt.world.reg.Counter(metrics.Label("js_core_invocations_total", "node", rt.Node())).Inc()
	rt.world.reg.Histogram(metrics.Label("js_core_invoke_service_us", "node", rt.Node()), nil).ObserveDuration(service)
	return res, service, err
}

// migrateOut implements pa1's side of the migration protocol (Fig. 3):
// wait for in-flight methods to finish, serialize the object, hand it to
// pa2, and release the local instance once pa2 confirms.
func (rt *Runtime) migrateOut(p sched.Proc, req migrateOutReq) error {
	key := objKey{req.App, req.ID}
	h, err := rt.acquireQuiescent(p, key)
	if err != nil {
		return err
	}
	state, err := rmi.Marshal(h.instance)
	if err != nil {
		rt.releaseMigrating(key)
		return fmt.Errorf("oas: serialize for migration: %w", err)
	}
	// A durable object hands its WAL identity over: this node writes a
	// tombstone at durVer+1 and the destination logs from durVer+2, so
	// after the move only the destination's records are live in replay.
	mreq := migrateInReq{Ref: h.ref, State: state}
	var tombVer uint64
	rt.mu.Lock()
	if rt.dur != nil && h.durable {
		mreq.Durable = true
		mreq.DurReads = sortedMethods(h.durReads)
		tombVer = h.durVer + 1
		mreq.DurVer = h.durVer + 2
	}
	rt.mu.Unlock()
	// Step 2-3: transfer and wait for pa2's confirmation.
	body := rmi.MustMarshal(mreq)
	if _, err := rt.st.Call(p, req.Dest, PubService, "migrateIn", body, 10*time.Second); err != nil {
		rt.releaseMigrating(key) // migration failed; object stays usable
		return err
	}
	if mreq.Durable {
		_, _ = rt.durAppend(nil, wal.Record{Kind: wal.KindDelete, Key: durObjKey(key.app, key.id), Ver: tombVer}, false)
	}
	// Step 4: drop the local instance.
	rt.free(key)
	return nil
}

// materialize turns a serialized image back into a bound instance of
// class on this node: every path that receives object bytes (migration,
// load, WAL replay, replica seed and update, lease renewal, write
// rollback) comes through here.
func (rt *Runtime) materialize(class string, state []byte) (any, error) {
	inst, err := rt.store.New(class)
	if err != nil {
		return nil, err
	}
	if err := rmi.Unmarshal(state, inst); err != nil {
		return nil, fmt.Errorf("oas: deserialize %s image: %w", class, err)
	}
	rt.bind(inst)
	return inst, nil
}

// migrateIn is the PubOA's one install: pa2's side of a migration, and
// equally the landing of a stored, checkpointed or WAL-replayed image.
func (rt *Runtime) migrateIn(req migrateInReq) error {
	inst, err := rt.materialize(req.Ref.Class, req.State)
	if err != nil {
		return err
	}
	key := objKey{req.Ref.App, req.Ref.ID}
	ho := &hostedObj{ref: req.Ref, instance: inst}
	if req.Durable {
		ho.durable = true
		ho.durReads = methodSet(req.DurReads)
		ho.durVer = req.DurVer
	}
	rt.mu.Lock()
	rt.hosted[key] = ho
	rt.mu.Unlock()
	rt.updateObjectGauge()
	if req.Durable {
		// Log the arrived state so this node's WAL owns the object from
		// the handover version on, even if the source media is later lost.
		_, _ = rt.durAppend(nil, wal.Record{
			Kind: wal.KindUpdate, Key: durObjKey(key.app, key.id), Ver: req.DurVer, Data: req.State,
		}, false)
	}
	return nil
}

// acquireQuiescent waits until the object has no executing methods, then
// marks it migrating so no new invocation can start (paper §4.6:
// "migration is delayed until all unfinished method invocations have
// completed execution").  While waiting it flags the object so new
// invocations are deflected, guaranteeing the wait terminates even under
// a continuous stream of calls.
func (rt *Runtime) acquireQuiescent(p sched.Proc, key objKey) (*hostedObj, error) {
	for {
		rt.mu.Lock()
		h, ok := rt.hosted[key]
		if !ok {
			rt.mu.Unlock()
			return nil, errors.New(errObjMoved)
		}
		if h.migrating {
			rt.mu.Unlock()
			return nil, errors.New(errObjBusy)
		}
		if h.executing == 0 {
			h.wanted = false
			h.migrating = true
			rt.mu.Unlock()
			return h, nil
		}
		h.wanted = true
		rt.mu.Unlock()
		p.Sleep(2 * time.Millisecond)
	}
}

// releaseMigrating clears the migration mark after a failed or completed
// non-destructive acquisition.
func (rt *Runtime) releaseMigrating(key objKey) {
	rt.mu.Lock()
	if h, ok := rt.hosted[key]; ok {
		h.migrating = false
		h.wanted = false
	}
	rt.mu.Unlock()
}

// free drops a hosted object.
func (rt *Runtime) free(key objKey) {
	rt.mu.Lock()
	delete(rt.hosted, key)
	rt.mu.Unlock()
	rt.updateObjectGauge()
}

// freeTraced drops a hosted object and records it (explicit frees; the
// removal half of a migration is part of the migration event instead).
func (rt *Runtime) freeTraced(key objKey) {
	var tombVer uint64
	tomb := false
	if rt.dur != nil {
		rt.mu.Lock()
		if h, ok := rt.hosted[key]; ok && h.durable {
			tomb = true
			tombVer = h.durVer + 1
		}
		rt.mu.Unlock()
	}
	rt.free(key)
	if tomb {
		// Tombstone so replay does not resurrect the freed object.
		_, _ = rt.durAppend(nil, wal.Record{Kind: wal.KindDelete, Key: durObjKey(key.app, key.id), Ver: tombVer}, false)
	}
	rt.world.emit(trace.Event{Kind: trace.ObjFreed, Node: rt.Node(), App: key.app, Obj: key.id})
}

// persist stores a quiescent object's state under req.Key (paper §4.7).
// The object stays hosted and usable afterwards.
func (rt *Runtime) persist(p sched.Proc, req storeReq) (string, error) {
	key := objKey{req.App, req.ID}
	h, err := rt.acquireQuiescent(p, key)
	if err != nil {
		return "", err
	}
	defer rt.releaseMigrating(key)
	state, err := rmi.Marshal(h.instance)
	if err != nil {
		return "", fmt.Errorf("oas: serialize for store: %w", err)
	}
	k := req.Key
	if k == "" {
		k = fmt.Sprintf("jsobj-%s-%d-%d", req.App, req.ID, p.Sched().Now().Nanoseconds())
	}
	rec := PersistRecord{Class: h.ref.Class, State: state}
	// A replicated primary persists its policy too, so a restore can
	// re-materialize the replica set instead of silently degrading the
	// object to a single copy.
	rt.mu.Lock()
	if rs := h.repl; rs != nil && !rs.isReplica && len(rs.peers) > 0 {
		rec.Replica = rs.policySnapshot()
	}
	rt.mu.Unlock()
	if err := rt.world.storage.Put(k, rec); err != nil {
		return "", err
	}
	rt.world.emit(trace.Event{Kind: trace.ObjStored, Node: rt.Node(), App: req.App, Obj: req.ID, Detail: k})
	return k, nil
}

// loadStored re-materializes a stored object on this node under a fresh
// ref.
func (rt *Runtime) loadStored(req loadReq) error {
	rec, err := rt.world.storage.Get(req.Key)
	if err != nil {
		return err
	}
	if rec.Class != req.Ref.Class {
		return fmt.Errorf("oas: stored object %q has class %s, expected %s", req.Key, rec.Class, req.Ref.Class)
	}
	if err := rt.migrateIn(migrateInReq{Ref: req.Ref, State: rec.State}); err != nil {
		return err
	}
	rt.world.emit(trace.Event{Kind: trace.ObjLoaded, Node: rt.Node(), App: req.Ref.App, Obj: req.Ref.ID, Detail: req.Key})
	return nil
}

// spanRec accumulates one invocation's span across retry attempts; it is
// created when the operation starts and finished exactly once.
type spanRec struct {
	rt       *Runtime
	span     trace.Span
	first    time.Duration // scheduler time the first attempt started
	attempt  time.Duration // scheduler time the current attempt started
	attempts int
}

// beginSpan opens a span for an invocation issued from this node.  The
// id is allocated up front so it can travel in the request and parent
// any nested calls the method body makes.
func (rt *Runtime) beginSpan(parent uint64, kind trace.SpanKind, ref Ref, method string) *spanRec {
	now := rt.world.s.Now()
	return &spanRec{
		rt: rt,
		span: trace.Span{
			ID: rt.world.spans.NextID(), Parent: parent,
			App: ref.App, Obj: ref.ID, Method: method,
			Origin: rt.Node(), Kind: kind, Start: now,
		},
		first:   now,
		attempt: now,
	}
}

// beginAttempt marks the start of one invocation attempt.  The first
// call pins the queue/retry boundary: time before the first attempt is
// queue (locates, routing), time between the first and the final
// attempt is retry (failed attempts, backoff).
func (s *spanRec) beginAttempt() {
	now := s.rt.world.s.Now()
	if s.attempts == 0 {
		s.first = now
	}
	s.attempts++
	s.attempt = now
}

// noteRetry records one failed, about-to-be-retried attempt as its own
// span, cause-linked to the request span so the causal DAG shows why
// the request stalled without double-counting the time (the request
// span's Retry segment already carries it).
func (s *spanRec) noteRetry(target string, err error) {
	now := s.rt.world.s.Now()
	s.rt.world.observeSpan(trace.Span{
		ID: s.rt.world.spans.NextID(), Cause: s.span.ID,
		App: s.span.App, Obj: s.span.Obj, Method: s.span.Method,
		Origin: s.span.Origin, Target: target, Kind: trace.SpanRetry,
		Start: s.attempt, Wire: now - s.attempt, Err: err.Error(),
	})
}

// finish completes the span with the five-way latency decomposition:
// queue (before the first attempt), retry (first to final attempt),
// service and lease-wait (reported by the host), wire (the remainder of
// the final round trip).  The segments sum to end-to-end latency
// exactly, which is what lets the critical-path analyzer attribute
// ~100% of a request's time.
func (s *spanRec) finish(target string, service, leaseWait time.Duration, err error) {
	now := s.rt.world.s.Now()
	s.span.Target = target
	s.span.Queue = s.first - s.span.Start
	s.span.Retry = s.attempt - s.first
	s.span.Service = service
	s.span.LeaseWait = leaseWait
	if wire := now - s.attempt - service - leaseWait - s.span.Durability; wire > 0 {
		s.span.Wire = wire
	}
	if err != nil {
		s.span.Err = err.Error()
	}
	s.rt.world.observeSpan(s.span)
}

// InvokeRef performs a synchronous invocation through a first-order
// handle from this node.  The last known location of each foreign object
// is cached; when a call misses (the object migrated), the location is
// re-resolved through the origin AppOA (Fig. 4) and the cache updated.
func (rt *Runtime) InvokeRef(p sched.Proc, ref Ref, method string, args []any) (any, error) {
	return rt.InvokeRefTraced(p, 0, trace.SpanSync, ref, method, args)
}

// InvokeRefTraced is InvokeRef with explicit span lineage: parent is the
// caller's span id (0 for a root call) and kind records how the caller
// issued the invocation (the async flavor runs this on a dedicated proc).
//
// For replicated objects the locate response carries the replica set;
// it is cached alongside the location, and invocations of declared read
// methods are routed to the nearest live member (writes keep targeting
// the primary).  A member that deflects or times out is avoided on the
// retry, so reads fail over across the set.
func (rt *Runtime) InvokeRefTraced(p sched.Proc, parent uint64, kind trace.SpanKind, ref Ref, method string, args []any) (any, error) {
	key := objKey{ref.App, ref.ID}
	rt.mu.Lock()
	loc, cached := rt.locCache[key]
	set := rt.rsetCache[key]
	rt.mu.Unlock()
	if !cached {
		loc = ref.Origin // first guess: objects often live near their app
	}
	sr := rt.beginSpan(parent, kind, ref, method)
	var lastErr error
	var avoid map[string]bool
	deadline := p.Sched().Now() + invokeTimeout
	backoff := 2 * time.Millisecond
	for p.Sched().Now() < deadline {
		target := loc
		read := !set.Empty() && set.IsRead(method)
		if read {
			if n, ok := rt.world.routeRead(refKey(ref.App, ref.ID), rt.Node(), set, avoid); ok {
				target = n
			}
		}
		sr.beginAttempt()
		resp, err := rt.invokeAt(p, target, ref, method, args, sr.span.ID, read, "")
		if err == nil {
			rt.mu.Lock()
			rt.locCache[key] = loc
			if !resp.RSet.Empty() {
				// The primary served us and told us about its replica set;
				// route subsequent declared reads through it.
				rt.rsetCache[key] = resp.RSet
			}
			rt.mu.Unlock()
			sr.span.Staleness = resp.Staleness
			sr.span.Durability = resp.Durability
			rt.world.noteRead(read, resp)
			sr.finish(target, resp.Service, resp.LeaseWait, nil)
			return resp.Result, nil
		}
		lastErr = err
		if !rmi.IsRemote(err, errObjMoved) && !rmi.IsRemote(err, errObjBusy) &&
			!rmi.IsRemote(err, errObjUnknown) && !rmi.IsRemote(err, errReplicaStale) &&
			!errors.Is(err, rmi.ErrTimeout) {
			sr.finish(target, 0, 0, err)
			return nil, err
		}
		sr.noteRetry(target, err)
		if read && target != loc {
			// The read replica deflected or is unreachable: fail over to
			// another member right away; the re-locate below refreshes
			// the set (a crashed member disappears from it).
			if avoid == nil {
				avoid = make(map[string]bool)
			}
			avoid[target] = true
		} else if rmi.IsRemote(err, errObjBusy) || errors.Is(err, rmi.ErrTimeout) {
			// Migration in progress: block-and-retry (the paper's RMI
			// simply waits), with bounded backoff.  A timed-out call gets
			// the same treatment: the host may have crashed, and backing
			// off gives failure detection and recovery time to relocate
			// the object before the next locate.
			p.Sleep(backoff)
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
		}
		newLoc, newSet, err2 := rt.locate(p, ref)
		if err2 != nil {
			err2 = fmt.Errorf("oas: relocating %s/%d: %w", ref.App, ref.ID, err2)
			sr.finish(target, 0, 0, err2)
			return nil, err2
		}
		loc, set = newLoc, newSet
	}
	err := fmt.Errorf("oas: invocation kept missing migrating object: %w", lastErr)
	sr.finish(loc, 0, 0, err)
	return nil, err
}

// invokeAt issues one invocation attempt at a specific node, taking the
// local fast path (the paper's "local (direct) method invocation") when
// the object is hosted here.  read marks invocations of declared
// read-only methods, the only ones a replica may serve.
func (rt *Runtime) invokeAt(p sched.Proc, loc string, ref Ref, method string, args []any, span uint64, read bool, class string) (invokeResp, error) {
	req := invokeReq{App: ref.App, ID: ref.ID, Method: method, Args: args, Span: span, Read: read, Class: class}
	// The locality split every placement decision is judged by: a call
	// whose target lives on the calling node skips the wire entirely.
	if loc == rt.Node() {
		rt.world.reg.Counter("js_core_local_invokes_total").Inc()
		resp, err := rt.invoke(p, req)
		if err != nil {
			// Mirror the wire behaviour so retry logic sees the same
			// sentinels either way.
			return invokeResp{}, &rmi.RemoteError{Node: loc, Msg: err.Error()}
		}
		return resp, nil
	}
	rt.world.reg.Counter("js_core_remote_invokes_total").Inc()
	body, err := rmi.Marshal(req)
	if err != nil {
		return invokeResp{}, err
	}
	respBody, err := rt.st.Call(p, loc, PubService, "invoke", body, invokeTimeout)
	if err != nil {
		return invokeResp{}, err
	}
	var resp invokeResp
	if err := rmi.Unmarshal(respBody, &resp); err != nil {
		return invokeResp{}, err
	}
	return resp, nil
}

// invokeTimeout bounds one remote method execution.  Long-running
// methods should be asynchronous by design; the paper's blocking RMI has
// no timeout at all, so this is generous.
const invokeTimeout = 10 * time.Minute

// ForgetLocation drops the cached location and replica set of a foreign
// object, forcing the next InvokeRef to re-resolve through the origin
// AppOA (used when a caller learns out-of-band that the topology
// changed, and by the forwarding-penalty benchmark).
func (rt *Runtime) ForgetLocation(ref Ref) {
	rt.mu.Lock()
	delete(rt.locCache, objKey{ref.App, ref.ID})
	delete(rt.rsetCache, objKey{ref.App, ref.ID})
	rt.mu.Unlock()
}

// locate asks the origin AppOA where the object currently lives (Fig. 4)
// and what its replica set is (empty for unreplicated objects).
func (rt *Runtime) locate(p sched.Proc, ref Ref) (string, replica.Set, error) {
	body, err := rt.st.Call(p, ref.Origin, ref.appService(), "locate",
		rmi.MustMarshal(locateReq{ID: ref.ID}), 5*time.Second)
	if err != nil {
		return "", replica.Set{}, err
	}
	var resp locateResp
	if err := rmi.Unmarshal(body, &resp); err != nil {
		return "", replica.Set{}, err
	}
	if !resp.OK {
		return "", replica.Set{}, errors.New(errObjUnknown)
	}
	rt.mu.Lock()
	if resp.RSet.Empty() {
		delete(rt.rsetCache, objKey{ref.App, ref.ID})
	} else {
		rt.rsetCache[objKey{ref.App, ref.ID}] = resp.RSet
	}
	rt.mu.Unlock()
	return resp.Node, resp.RSet, nil
}
