package core

import (
	"errors"
	"fmt"
	"slices"
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

	mu       sync.Mutex
	hosted   map[objKey]*hostedObj
	refCache map[objKey]route // last known location and replica set of foreign objects

	// Handles of the per-node families, resolved in newRuntime.
	invocations, sheds, classSheds, replicaReads *metrics.Counter
	serviceUs                                    *metrics.Histogram
}

type objKey struct {
	app string
	id  uint64
}

// hostedObj is one remote-objects-table entry (paper §5.2): the instance,
// where it came from, and the in-flight method bookkeeping that delays
// migration and persistence.
type hostedObj struct {
	ref      Ref
	instance any
	// image is the state a replica was shipped and has not decoded yet:
	// the primary's own encoding, kept as it arrived.  While it is set,
	// instance is nil; the first reader that needs the instance decodes
	// it (live) and drops it, and captureState returns it as it lies.
	// Only replicaApply and renewLease set it, on a replica-role copy;
	// replicaConfigure decodes it before the copy leaves that role, so
	// every primary-side path reads instance directly.
	image     []byte
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
	durReads []string // methods that do not mutate state (readList form)
	durVer   uint64
	durKey   string // the WAL key, once built (walKey)
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
	return c.RT.invokeRef(c.P, c.Span, trace.SpanSync, ref, method, args)
}

// newRuntime wires a node runtime; the station must not be started yet.
func newRuntime(w *World, st *rmi.Station, agent *nas.Agent, mach *simnet.Machine) *Runtime {
	reg, node := w.reg, st.Node()
	rt := &Runtime{
		world:    w,
		st:       st,
		agent:    agent,
		store:    codebase.NewStore(w.registry),
		mach:     mach,
		hosted:   make(map[objKey]*hostedObj),
		refCache: make(map[objKey]route),

		invocations:  reg.CounterHandle(metrics.Label("js_core_invocations_total", "node", node)),
		sheds:        reg.CounterHandle(metrics.Label("js_core_sheds_total", "node", node)),
		classSheds:   reg.CounterHandle(metrics.Label("js_core_class_sheds_total", "node", node)),
		replicaReads: reg.CounterHandle(metrics.Label("js_replica_reads_total", "node", node)),
		serviceUs:    reg.HistogramHandle(metrics.Label("js_core_invoke_service_us", "node", node), nil),
	}
	st.Register(PubService, pubMethods.Serve(rt))
	return rt
}

// pubMethods is the PubService table (DESIGN.md §15).
var pubMethods = rmi.Methods[*Runtime]{
	"create":           rmi.Void((*Runtime).create),
	"invoke":           rmi.Typed((*Runtime).invoke),
	"migrateOut":       rmi.Void((*Runtime).migrateOut),
	"migrateIn":        rmi.Void((*Runtime).migrateIn),
	"free":             rmi.Void((*Runtime).freeTraced),
	"store":            rmi.Typed((*Runtime).persist),
	"load":             rmi.Void((*Runtime).loadStored),
	"loadCodebase":     rmi.Void((*Runtime).loadCodebase),
	"replicaConfigure": rmi.Void((*Runtime).replicaConfigure),
	"replicaUpdate":    rmi.Void((*Runtime).replicaApply),
	"durable":          rmi.Void((*Runtime).makeDurable),
	"replicaAuthBatch": rmi.Typed((*Runtime).replicaAuthBatch),
	"replicaDrop":      rmi.Void((*Runtime).replicaDrop),
	"replicaSnapshot":  rmi.Typed((*Runtime).replicaSnapshot),
	"replicaRenew":     rmi.Typed((*Runtime).replicaRenew),
}

// Node returns the runtime's node name.
func (rt *Runtime) Node() string { return rt.st.Node() }

// Station returns the node's RMI station.
func (rt *Runtime) Station() *rmi.Station { return rt.st }

// Agent returns the node's network agent.
func (rt *Runtime) Agent() *nas.Agent { return rt.agent }

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
	rt.refCache = make(map[objKey]route)
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
// the shell's inspection commands.  A replica decodes the image it was
// shipped here if nothing has read it yet; one that does not decode
// reports false.
func (rt *Runtime) Instance(ref Ref) (any, bool) {
	rt.mu.Lock()
	h, ok := rt.hosted[objKey{ref.App, ref.ID}]
	rt.mu.Unlock()
	if !ok {
		return nil, false
	}
	inst, err := rt.live(h)
	return inst, err == nil
}

// live returns h's instance.  A replica still holding the image it was
// shipped decodes it here, outside Runtime.mu (materialize runs the
// class's own code), and installs the copy unless a newer image replaced
// that one meanwhile; the caller uses what it decoded either way, the
// state that was current when it looked.  Only a replica holds an image
// (replicaConfigure decodes it before promoting the copy), and replica
// reads never mutate the instance, so a private copy serves them as
// well as the installed one.  An image that does not decode fails the
// caller with materialize's "oas: deserialize" error and stays pending.
// Called without Runtime.mu.
func (rt *Runtime) live(h *hostedObj) (any, error) {
	rt.mu.Lock()
	inst, image := h.instance, h.image
	rt.mu.Unlock()
	if image == nil {
		return inst, nil
	}
	inst, err := rt.materialize(h.ref.Class, image)
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	if sameImage(h.image, image) {
		h.instance, h.image = inst, nil
	}
	rt.mu.Unlock()
	return inst, nil
}

// sameImage reports whether cur is still the image b a decoder read:
// the same backing array, or two empty images.
func sameImage(cur, b []byte) bool {
	if cur == nil || len(cur) != len(b) {
		return false
	}
	return len(b) == 0 || &cur[0] == &b[0]
}

// updateObjectGauge feeds the jrs.objects parameter to the node's agent.
func (rt *Runtime) updateObjectGauge() {
	rt.mu.Lock()
	n := len(rt.hosted)
	rt.mu.Unlock()
	rt.agent.SetObjects(n)
}

// create instantiates an object of req.Ref's class on this node.
func (rt *Runtime) create(_ sched.Proc, req createReq) error {
	ref := req.Ref
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
			rt.sheds.Inc()
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
			rt.world.authRejects.Inc()
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
	write := rs == nil || !slices.Contains(rs.reads, req.Method)
	// A write on a replicated primary holds the fan lock across
	// execution and propagation: writes serialize with each other, and
	// the state shipped to replicas is a consistent post-write snapshot
	// whose version order matches apply order.
	primaryWrite := write && rs != nil && len(rs.peers) > 0
	// A write whose ack promises synchronous copies — strong mode, or
	// eventual with MinSync > 0 — must be undone if no peer receives it.
	syncWrite := primaryWrite && (rs.mode == replica.Strong || rs.minSync > 0)
	// A state-changing invocation on a durable object is WAL-logged
	// before the ack; declared reads (durable or replica policy) skip
	// the log.
	durWrite := write && rt.dur != nil && h.durable && !slices.Contains(h.durReads, req.Method)
	// A write clears the shipped image before it executes: under the fan
	// lock below, or here if it runs without it (a primary with no
	// peers), so a renewal or snapshot meanwhile encodes afresh.
	if write && rs != nil && !primaryWrite {
		rs.shipped = nil
	}
	var rset replica.Set
	if rs != nil && len(rs.peers) > 0 {
		rset = replica.Set{Primary: rt.Node(), Replicas: rs.peers, Mode: rs.mode, Lease: rs.lease, Reads: rs.reads}
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

	var shipped []byte // the post-write image propagate shipped
	defer func() {
		rt.mu.Lock()
		h.executing--
		if ranked {
			h.rankExec[rank]--
		}
		// Only the write that shipped the current image may leave one
		// behind: a write without the fan lock, or under a replState
		// that replaced its own, may have outdated another's.
		if write && h.repl != nil && (shipped == nil || h.repl != rs) {
			h.repl.shipped = nil
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
		// The image the last write shipped is this write's undo image;
		// from here until propagate ships the new state the instance no
		// longer encodes to it.  The instance is read again under the
		// lock: a rollback while this write queued replaced it.
		rt.mu.Lock()
		inst = h.instance
		undo = rs.shipped
		rs.shipped = nil
		rt.mu.Unlock()
		if syncWrite && undo == nil {
			undo, _ = rmi.Marshal(inst)
		}
	}
	res, service, err := rt.execMethod(p, inst, req)
	if primaryWrite && err == nil {
		var syncDelivered int
		syncDelivered, shipped = rt.propagate(p, h, rs, req.Span)
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
		stall, derr := rt.durLogState(p, h, shipped, true)
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
	rt.classSheds.Inc()
	return fmt.Errorf("%w: class %s refused at %s (%s): shed by admission while in flight",
		rmi.ErrOverload, req.Class, rt.Node(), where)
}

// execMethod runs one method body on an instance, with Ctx injection and
// the per-invocation trace/metrics bookkeeping.  Methods may declare
// *core.Ctx as their first parameter to access the execution context.
func (rt *Runtime) execMethod(p sched.Proc, inst any, req invokeReq) (any, time.Duration, error) {
	watch := sched.StartWatch(rt.world.s)
	res, err := codebase.InvokeLead(inst, req.Method, req.Args, func() *Ctx {
		return &Ctx{P: p, RT: rt, Span: req.Span}
	})
	service := watch.Elapsed()
	rt.world.emit(trace.Event{Kind: trace.ObjInvoked, Node: rt.Node(),
		App: req.App, Obj: req.ID, Detail: req.Method})
	rt.invocations.Inc()
	rt.serviceUs.ObserveDuration(service)
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
		mreq.DurReads = h.durReads
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
// class on this node: every path that installs received object bytes
// (migration, load, WAL replay, write rollback) comes through here, and
// so does a replica's pending image, at its first read or at promotion
// (live).
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
func (rt *Runtime) migrateIn(_ sched.Proc, req migrateInReq) error {
	inst, err := rt.materialize(req.Ref.Class, req.State)
	if err != nil {
		return err
	}
	key := objKey{req.Ref.App, req.Ref.ID}
	ho := &hostedObj{ref: req.Ref, instance: inst}
	if req.Durable {
		ho.durable = true
		ho.durReads = readList(req.DurReads)
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
func (rt *Runtime) freeTraced(_ sched.Proc, req freeReq) error {
	key := objKey{req.App, req.ID}
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
	return nil
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
		rec.Replica = &replica.Policy{N: len(rs.peers), Mode: rs.mode, Lease: rs.lease, Reads: rs.reads, MinSync: rs.minSync}
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
func (rt *Runtime) loadStored(p sched.Proc, req loadReq) error {
	rec, err := rt.world.storage.Get(req.Key)
	if err != nil {
		return err
	}
	if rec.Class != req.Ref.Class {
		return fmt.Errorf("oas: stored object %q has class %s, expected %s", req.Key, rec.Class, req.Ref.Class)
	}
	if err := rt.migrateIn(p, migrateInReq{Ref: req.Ref, State: rec.State}); err != nil {
		return err
	}
	rt.world.emit(trace.Event{Kind: trace.ObjLoaded, Node: rt.Node(), App: req.Ref.App, Obj: req.Ref.ID, Detail: req.Key})
	return nil
}

// loadCodebase loads req.Classes into this node's class store.
func (rt *Runtime) loadCodebase(_ sched.Proc, req codebaseReq) error {
	newBytes, err := rt.store.Load(req.Classes...)
	if err == nil {
		rt.world.emit(trace.Event{
			Kind: trace.CodebaseLoaded, Node: rt.Node(),
			Detail: fmt.Sprintf("%d classes, %d new bytes", len(req.Classes), newBytes),
		})
	}
	return err
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
	return rt.invokeRef(p, 0, trace.SpanSync, ref, method, args)
}

// AInvokeRef is the asynchronous InvokeRef (§4.5).
func (rt *Runtime) AInvokeRef(ref Ref, method string, args []any) *Handle {
	return ainvoke(rt.world.s, func(p sched.Proc) (any, error) {
		return rt.invokeRef(p, 0, trace.SpanAsync, ref, method, args)
	})
}

// invokeRef is InvokeRef with explicit span lineage: parent is the
// caller's span id (0 for a root call) and kind records how the caller
// issued the invocation.
func (rt *Runtime) invokeRef(p sched.Proc, parent uint64, kind trace.SpanKind, ref Ref, method string, args []any) (any, error) {
	rt.mu.Lock()
	r := rt.refCache[objKey{ref.App, ref.ID}]
	rt.mu.Unlock()
	r.ref = ref
	if r.loc == "" {
		r.loc = ref.Origin // first guess: objects often live near their app
	}
	return rt.invokeSync(p, rt.beginSpan(parent, kind, ref, method), r, args)
}

// route is where a handle's next invocation attempt goes.  It comes
// from the calling application's own table row (app set) or, for a
// foreign Ref, from this runtime's cache.
type route struct {
	app *App
	ref Ref
	loc string
	set replica.Set
}

// reroute re-resolves a route after a miss.  An own handle re-reads its
// table row.  A foreign Ref asks the origin AppOA where the object lives
// now and what its replica set is (Fig. 4).
func (rt *Runtime) reroute(p sched.Proc, r route) (route, error) {
	if r.app != nil {
		return r.app.route(r.ref.ID)
	}
	resp, err := rmi.Ask[locateReq, locateResp](p, rt.st, r.ref.Origin, r.ref.appService(), "locate",
		locateReq{ID: r.ref.ID}, 5*time.Second)
	if err == nil && !resp.OK {
		err = errors.New(errObjUnknown)
	}
	if err != nil {
		return r, fmt.Errorf("oas: relocating %s/%d: %w", r.ref.App, r.ref.ID, err)
	}
	key := objKey{r.ref.App, r.ref.ID}
	rt.mu.Lock()
	c := rt.refCache[key]
	c.set = resp.RSet
	rt.refCache[key] = c
	rt.mu.Unlock()
	r.loc, r.set = resp.Node, resp.RSet
	return r, nil
}

// invokeSync performs the invocation sr records through r.  While the
// object is busy (migrating), moved, stale (lost its primary), unknown,
// or its host timed out, the caller retries — the paper's blocking RMI
// simply waits out a migration — and re-resolves r after every miss,
// for at most invokeTimeout.  Failed attempts and backoff are the span's
// retry time, each also cause-linked as its own retry span.
//
// A declared read on a replicated object goes to the nearest live set
// member; one that misses is avoided and the next tried at once, until
// the whole set has been tried.  Other misses back off on busy and
// timeout, and on the rest only when the source cannot be asked: the own
// table row is repaired by migration, recovery and promotion, so
// re-reading it at once would return the same row.
func (rt *Runtime) invokeSync(p sched.Proc, sr *spanRec, r route, args []any) (any, error) {
	method := sr.span.Method
	var lastErr error
	var avoid map[string]bool // replica members that deflected or timed out
	deadline := p.Sched().Now() + invokeTimeout
	backoff := 2 * time.Millisecond
	for p.Sched().Now() < deadline {
		target := r.loc
		read := !r.set.Empty() && r.set.IsRead(method)
		if read {
			if n, ok := rt.world.routeRead(refKey(r.ref.App, r.ref.ID), rt.Node(), r.set, avoid); ok {
				target = n
			}
		}
		sr.beginAttempt()
		resp, err := rt.invokeAt(p, target, r.ref, method, args, sr.span.ID, read, sr.span.Class)
		if err == nil {
			if r.app == nil {
				key := objKey{r.ref.App, r.ref.ID}
				rt.mu.Lock()
				c := rt.refCache[key]
				c.loc = r.loc
				if !resp.RSet.Empty() {
					// The primary served us and told us about its replica
					// set; route subsequent declared reads through it.
					c.set = resp.RSet
				}
				rt.refCache[key] = c
				rt.mu.Unlock()
			}
			sr.span.Staleness = resp.Staleness
			sr.span.Durability = resp.Durability
			// Where a declared read was served (the replica-hit ratio).
			if read && resp.Replica {
				rt.world.readHits.Inc()
			} else if read {
				rt.world.readPrimary.Inc()
			}
			sr.finish(target, resp.Service, resp.LeaseWait, nil)
			return resp.Result, nil
		}
		lastErr = err
		busy := rmi.IsRemote(err, errObjBusy) || errors.Is(err, rmi.ErrTimeout)
		if !busy && !rmi.IsRemote(err, errObjMoved) && !rmi.IsRemote(err, errReplicaStale) &&
			!rmi.IsRemote(err, errObjUnknown) {
			sr.finish(target, 0, 0, err)
			return nil, err
		}
		sr.noteRetry(target, err)
		wait := busy || r.app != nil
		if read && target != r.loc {
			if avoid == nil {
				avoid = make(map[string]bool)
			}
			avoid[target] = true
			if len(avoid) < 1+len(r.set.Replicas) { // the primary and its replicas
				wait = false
			} else {
				avoid = nil
			}
		}
		if wait {
			p.Sleep(backoff)
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
		}
		if r, err = rt.reroute(p, r); err != nil {
			sr.finish(target, 0, 0, err)
			return nil, err
		}
	}
	err := fmt.Errorf("core: invocation of %q never caught up with migration: %w", method, lastErr)
	sr.finish(r.loc, 0, 0, err)
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
		rt.world.localInvokes.Inc()
		resp, err := rt.invoke(p, req)
		if err != nil {
			// Mirror the wire behaviour so retry logic sees the same
			// sentinels either way.
			return invokeResp{}, &rmi.RemoteError{Node: loc, Msg: err.Error()}
		}
		return resp, nil
	}
	rt.world.remoteInvokes.Inc()
	return rmi.Ask[invokeReq, invokeResp](p, rt.st, loc, PubService, "invoke", req, invokeTimeout)
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
	delete(rt.refCache, objKey{ref.App, ref.ID})
	rt.mu.Unlock()
}
