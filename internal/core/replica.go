package core

// Runtime-side (PubOA) half of the replication subsystem: the per-object
// replication state, the replica read path with lease renewal, and the
// primary's write fan-out.  The AppOA half — materializing, healing, and
// promoting sets — lives in replica_app.go; the shared vocabulary in
// internal/replica.
//
// Concurrency discipline (this is what makes replica state safe without
// a lock around method execution):
//
//   - On the primary, writes hold the per-object fan lock across
//     execution, version bump, serialization, and fan-out.  Reads run
//     concurrently; a read method declared in the policy must therefore
//     not mutate the instance.
//   - On a replica, an update never mutates the served instance: the
//     new image replaces the copy's state under the runtime mutex and
//     the first read that needs it decodes it into a fresh instance
//     (Runtime.live).  In-flight reads keep the old snapshot.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/trace"
	"jsymphony/internal/wal"
)

// replicaCallTimeout bounds one replication-protocol RMI (update, renew,
// snapshot, configure).  Station-level retries run inside it.
const replicaCallTimeout = 5 * time.Second

// replState is the replication state of one hosted object, carried by
// whichever role the local copy plays.  Guarded by Runtime.mu except
// where noted.
type replState struct {
	// Replica role.
	isReplica  bool
	primary    string        // node to renew leases from
	leaseUntil time.Duration // strong mode: reads allowed until this instant
	asOf       time.Duration // primary clock when the held state was captured
	renew      *prioLock     // serializes lease renewals (replica side)

	// Primary role.  peers and reads are replaced whole, never written
	// in place, so a Set or Policy built from them shares them as they lie.
	peers     []string      // replica nodes, sorted
	fan       *prioLock     // serializes writes + propagation (primary side), admission-priority order
	reads     []string      // declared read-only methods (readList form)
	authUntil time.Duration // write authority granted by the origin AppOA
	minSync   int           // eventual mode: peers updated synchronously per write
	// shipped is the image propagate last shipped, kept while the
	// instance still encodes to it: the next sync write's undo image, a
	// lease renewal's and a seed snapshot's state, and the WAL record of
	// a replicated durable write reuse it instead of encoding the object
	// again.  Set and used only under the fan lock; nil whenever the
	// instance may differ from it.  A write clears it before it executes
	// and, unless its own propagate set it, again when it finishes;
	// rollback clears it; a migrated or promoted copy starts with it
	// nil, since only propagate sets it and a replica never propagates.
	shipped []byte

	// Both roles.
	version uint64 // monotonic update counter; survives promotion
	mode    replica.Mode
	lease   time.Duration
}

// refKey is the stable string identity of an object used for routing
// rotation and the directory's replica-set registry.
func refKey(app string, id uint64) string {
	var b [64]byte
	return string(strconv.AppendUint(append(append(b[:0], app...), '/'), id, 10))
}

// replicaConfigure installs or refreshes primary-side replication state
// on the hosting node.  It is also the promotion step: configuring a
// node currently holding a replica clears its replica role while keeping
// its version, so update ordering stays monotonic across the promotion.
// An empty peer set removes the replication state entirely.
func (rt *Runtime) replicaConfigure(_ sched.Proc, req replicaConfigureReq) error {
	key := objKey{req.App, req.ID}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	h, ok := rt.hosted[key]
	// A replica that still holds the image it was shipped decodes it
	// before it leaves the replica role, so only replicas ever hold one.
	// The decode runs outside the lock; an update that lands meanwhile
	// is decoded in turn.
	for ok && h.image != nil {
		rt.mu.Unlock()
		_, err := rt.live(h)
		rt.mu.Lock()
		if err != nil {
			return err
		}
		h, ok = rt.hosted[key]
	}
	if !ok {
		return errors.New(errObjMoved)
	}
	if len(req.Peers) == 0 {
		h.repl = nil
		return nil
	}
	rs := h.repl
	if rs == nil {
		rs = &replState{}
		h.repl = rs
	}
	if rs.fan == nil {
		rs.fan = newPrioLock(rt.world.s, "replica.fan")
	}
	rs.isReplica = false
	rs.primary = ""
	rs.leaseUntil = 0
	rs.peers = append([]string(nil), req.Peers...)
	sort.Strings(rs.peers)
	rs.mode = req.Mode
	rs.lease = req.Lease
	rs.authUntil = req.AuthUntil
	rs.minSync = req.MinSync
	rs.reads = readList(req.Reads)
	if h.durable {
		// Promotion path: the new primary inherits the policy's read set
		// as its durable-read exclusions, so reads never stall on fsync.
		h.durReads = rs.reads
	}
	return nil
}

// replicaAuthRenew extends the primary's write authority.  Grants are
// monotonic; a renewal reaching a copy that is no longer the primary is
// answered with the moved sentinel so the AppOA's view stays honest.
func (rt *Runtime) replicaAuthRenew(req replicaAuthRenewReq) error {
	key := objKey{req.App, req.ID}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	h, ok := rt.hosted[key]
	if !ok || h.repl == nil || h.repl.isReplica {
		return errors.New(errObjMoved)
	}
	if req.Until > h.repl.authUntil {
		h.repl.authUntil = req.Until
	}
	return nil
}

// replicaAuthBatch applies a per-node batch of authority grants in one
// RMI (the renewer's "per-node grant batching").  Items are applied in
// batch order; per-item failures (an object no longer primary here) are
// counted, not propagated — renewal has always been best-effort, and a
// moved object simply stops being renewed on this node.  Returns how
// many grants took effect.
func (rt *Runtime) replicaAuthBatch(_ sched.Proc, b rmi.Batch) (int, error) {
	applied := 0
	for i := 0; i < b.Len(); i++ {
		var req replicaAuthRenewReq
		if err := b.Decode(i, &req); err != nil {
			return applied, fmt.Errorf("oas: decode auth batch item %d: %w", i, err)
		}
		if err := rt.replicaAuthRenew(req); err != nil {
			rt.world.authBatchMisses.Inc()
			continue
		}
		applied++
	}
	return applied, nil
}

// authorityLapsed reports whether a primary-role copy has outlived its
// write authority.  Caller holds Runtime.mu.  A lapsed primary is a
// (potential) deposed zombie: its AppOA stopped renewing it — because it
// is unreachable and a survivor is being promoted — so serving anything
// here could ack a write the surviving lineage will never contain.
func (rs *replState) authorityLapsed(now time.Duration) bool {
	return !rs.isReplica && rs.authUntil > 0 && now > rs.authUntil
}

// replicaApply installs an update (or the initial seed) on a replica.
// Version ordering makes the handler idempotent under the rmi layer's
// at-least-once resends and the eventual mode's unordered one-way posts:
// state can never roll backwards.  Force bypasses the version check for
// re-seeds after migration, where the primary's counter restarts.
// The image is kept as it arrived, aliasing the request body, and
// decoded only when something needs the instance: most images are
// replaced by the next update before any read arrives.
func (rt *Runtime) replicaApply(p sched.Proc, req replicaUpdateReq) error {
	key := objKey{req.Ref.App, req.Ref.ID}
	if err := rt.store.Loaded(req.Ref.Class); err != nil {
		return err // the AppOA picks someone else
	}
	now := rt.world.s.Now()
	rt.mu.Lock()
	h, ok := rt.hosted[key]
	if !ok {
		h = &hostedObj{ref: req.Ref, repl: &replState{
			isReplica: true, renew: newPrioLock(rt.world.s, "replica.renew"),
		}}
		rt.hosted[key] = h
	}
	rs := h.repl
	if rs == nil || !rs.isReplica {
		// This node hosts the primary (e.g. it was just promoted); a
		// straggling update from the old primary must not clobber it.
		rt.mu.Unlock()
		return nil
	}
	if !req.Force && req.Version <= rs.version && rs.asOf != 0 {
		// Duplicate or reordered propagation: keep the newer state.
		rt.mu.Unlock()
		return nil
	}
	h.instance, h.image = nil, req.State
	rs.version = req.Version
	rs.asOf = req.AsOf
	rs.mode = req.Mode
	rs.lease = req.Lease
	rs.primary = req.Primary
	if req.Mode == replica.Strong {
		rs.leaseUntil = now + req.Lease
	}
	var walKey string
	if req.Durable {
		h.durable = true
		if req.DurVer > h.durVer {
			h.durVer = req.DurVer
		}
		walKey = h.walKey()
	}
	rt.mu.Unlock()
	rt.updateObjectGauge()
	if req.Durable && rt.dur != nil {
		// Log before the RMI reply leaves: a synchronous propagation of a
		// durable write acks only once this copy is on stable storage, so
		// MinSync counts logged copies, not merely delivered ones.
		if _, err := rt.durAppend(p, wal.Record{
			Kind: wal.KindUpdate, Key: walKey, Ver: req.DurVer, Data: req.State,
		}, true); err != nil {
			return fmt.Errorf("oas: replica durable log: %w", err)
		}
	}
	return nil
}

// replicaDrop discards a replica instance (set shrank, object freed).
// Only replica-role copies are dropped: a stray drop must never destroy
// a primary.
func (rt *Runtime) replicaDrop(_ sched.Proc, req replicaDropReq) error {
	key := objKey{req.App, req.ID}
	rt.mu.Lock()
	h, ok := rt.hosted[key]
	if !ok || h.repl == nil || !h.repl.isReplica {
		rt.mu.Unlock()
		return nil
	}
	delete(rt.hosted, key)
	rt.mu.Unlock()
	rt.updateObjectGauge()
	return nil
}

// replicaSnapshot returns the local copy's state and version: the AppOA
// seeds new replicas from the primary's snapshot and elects the freshest
// survivor by comparing replica versions.
func (rt *Runtime) replicaSnapshot(p sched.Proc, req replicaSnapshotReq) (replicaSnapshotResp, error) {
	state, version, err := rt.captureState(p, objKey{req.App, req.ID}, nil)
	return replicaSnapshotResp{State: state, Version: version}, err
}

// replicaRenew serves a lease renewal at the primary: fresh state, the
// current version, and a new lease window.  Only a primary whose write
// authority holds may renew.
func (rt *Runtime) replicaRenew(p sched.Proc, req replicaRenewReq) (replicaRenewResp, error) {
	var lease time.Duration
	state, version, err := rt.captureState(p, objKey{req.App, req.ID}, func(rs *replState) error {
		if rs == nil || rs.isReplica || rs.authorityLapsed(rt.world.s.Now()) {
			return errors.New(errObjMoved)
		}
		lease = rs.lease
		return nil
	})
	if err != nil {
		return replicaRenewResp{}, err
	}
	return replicaRenewResp{State: state, Version: version, AsOf: rt.world.s.Now(), Lease: lease}, nil
}

// captureState returns the image and version of the hosted copy of key.
// On a primary the fan lock is held so the state is not captured
// mid-write; on a replica the served instance is immutable, so the swap
// pointer alone is enough.  A pending image is returned as it lies, with
// no decode and no encode; the image propagate last shipped stands in
// for an encode only while h.repl is still the replState whose fan lock
// is held.  check, when set, vets the current replState under
// Runtime.mu, before the fan lock and again once it is held.
func (rt *Runtime) captureState(p sched.Proc, key objKey, check func(*replState) error) ([]byte, uint64, error) {
	rt.mu.Lock()
	h, ok := rt.hosted[key]
	if !ok {
		rt.mu.Unlock()
		return nil, 0, errors.New(errObjMoved)
	}
	rs := h.repl
	if check != nil {
		if err := check(rs); err != nil {
			rt.mu.Unlock()
			return nil, 0, err
		}
	}
	lockFan := rs != nil && !rs.isReplica && rs.fan != nil
	rt.mu.Unlock()
	if lockFan {
		rs.fan.lock(p, 0)
		defer rs.fan.unlock()
	}
	rt.mu.Lock()
	h, ok = rt.hosted[key]
	if !ok {
		rt.mu.Unlock()
		return nil, 0, errors.New(errObjMoved)
	}
	if check != nil {
		if err := check(h.repl); err != nil {
			rt.mu.Unlock()
			return nil, 0, err
		}
	}
	inst, state := h.instance, h.image
	var version uint64
	if h.repl != nil {
		version = h.repl.version
		if state == nil && lockFan && h.repl == rs {
			state = rs.shipped
		}
	}
	rt.mu.Unlock()
	if state == nil {
		var err error
		if state, err = rmi.Marshal(inst); err != nil {
			return nil, 0, fmt.Errorf("oas: serialize replica state: %w", err)
		}
	}
	return state, version, nil
}

// invokeAtReplica serves an invocation arriving at a read replica.  Only
// declared reads qualify; anything else is deflected to the primary with
// the moved sentinel.  Under strong mode an expired lease is renewed
// from the primary first — if the primary is unreachable the read fails
// with the stale sentinel and the caller fails over (and, once the
// failure is detected, a survivor is promoted).
func (rt *Runtime) invokeAtReplica(p sched.Proc, h *hostedObj, req invokeReq) (invokeResp, error) {
	if !req.Read {
		return invokeResp{}, errors.New(errObjMoved)
	}
	rt.mu.Lock()
	rs := h.repl
	if rs == nil || !rs.isReplica {
		// Promoted or torn down since dispatch: let the caller re-resolve.
		rt.mu.Unlock()
		return invokeResp{}, errors.New(errObjMoved)
	}
	now := rt.world.s.Now()
	needRenew := rs.mode == replica.Strong && now > rs.leaseUntil
	rt.mu.Unlock()
	var leaseWait time.Duration
	if needRenew {
		watch := sched.StartWatch(rt.world.s)
		err := rt.renewLease(p, h)
		leaseWait = watch.Elapsed()
		if err != nil {
			return invokeResp{}, errors.New(errReplicaStale)
		}
	}
	inst, err := rt.live(h)
	if err != nil {
		return invokeResp{}, err
	}
	rt.mu.Lock()
	var staleness time.Duration
	if rs.mode == replica.Eventual {
		staleness = rt.world.s.Now() - rs.asOf
	}
	h.executing++
	rt.mu.Unlock()
	res, service, err := rt.execMethod(p, inst, req)
	rt.mu.Lock()
	h.executing--
	rt.mu.Unlock()
	rt.replicaReads.Inc()
	return invokeResp{Result: res, Service: service, Staleness: staleness, LeaseWait: leaseWait, Replica: true}, err
}

// renewLease refreshes this replica's strong-mode lease from the
// primary, keeping the returned state as the pending image if its
// version differs.  Concurrent reads hitting an expired lease coalesce
// onto one renewal.
func (rt *Runtime) renewLease(p sched.Proc, h *hostedObj) error {
	rs := h.repl
	rs.renew.lock(p, 0)
	defer rs.renew.unlock()
	rt.mu.Lock()
	now := rt.world.s.Now()
	if now <= rs.leaseUntil {
		rt.mu.Unlock()
		return nil // renewed while we waited for the lock
	}
	ref := h.ref
	primary := rs.primary
	curVersion := rs.version
	rt.mu.Unlock()
	resp, err := rmi.Ask[replicaRenewReq, replicaRenewResp](p, rt.st, primary, PubService, "replicaRenew",
		replicaRenewReq{App: ref.App, ID: ref.ID}, replicaCallTimeout)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rs.isReplica {
		// Promoted while the renewal was out: the copy is the primary
		// now, and an answer from the old one must not clobber it.
		return nil
	}
	if resp.Version != curVersion {
		h.instance, h.image = nil, resp.State
		rs.version = resp.Version
	}
	rs.asOf = resp.AsOf
	rs.leaseUntil = resp.AsOf + resp.Lease
	return nil
}

// propagate ships the primary's post-write state to every peer, keeps
// it as the shipped image, and returns how many peers accepted it
// synchronously along with the image (nil if it could not be encoded).
// Called with the fan lock held, so version order equals state order.
// Strong mode fans out synchronously over the exactly-once rmi path
// and drops a peer that stays unreachable through the retry policy (the
// failure detector triggers the AppOA's repair); eventual mode posts
// one-way updates and lets version ordering absorb loss and
// reordering.  Under Eventual with MinSync: k, the fan-out
// walks the sorted peers and uses the synchronous path until k have
// confirmed (unreachable peers are dropped and the walk continues), so
// the ack implies k durable copies; the rest get the one-way post.
//
// cause is the span id of the write being propagated: every per-peer
// shipment is recorded as a cause-linked propagation span, so the
// causal DAG shows what a write set in motion (the time is already
// inside the write span's service/wire, so the analyzer does not walk
// cause edges for attribution).
func (rt *Runtime) propagate(p sched.Proc, h *hostedObj, rs *replState, cause uint64) (syncDelivered int, state []byte) {
	rt.mu.Lock()
	inst := h.instance
	rt.mu.Unlock()
	state, err := rmi.Marshal(inst)
	if err != nil {
		rt.world.emit(trace.Event{Kind: trace.ReplicaDropped, Node: rt.Node(),
			App: h.ref.App, Obj: h.ref.ID, Detail: "serialize: " + err.Error()})
		return 0, nil
	}
	rt.mu.Lock()
	rs.shipped = state
	rs.version++
	now := rt.world.s.Now()
	rs.asOf = now
	req := replicaUpdateReq{
		Ref: h.ref, State: state, Version: rs.version, AsOf: now,
		Lease: rs.lease, Mode: rs.mode, Primary: rt.Node(),
	}
	if rt.dur != nil && h.durable {
		// Bump the shared durable version under the same lock as the
		// replica version so every logged copy of this write — primary and
		// synchronously-updated peers — carries the identical Ver, which
		// is what lets replay merge per-node logs by max version.
		h.durVer++
		req.Durable = true
		req.DurVer = h.durVer
	}
	peers := rs.peers
	mode := rs.mode
	needSync := len(peers)
	if mode == replica.Eventual {
		needSync = rs.minSync
	}
	rt.mu.Unlock()
	body := rmi.MustMarshal(req)
	for _, peer := range peers {
		start := rt.world.s.Now()
		sp := trace.Span{
			ID: rt.world.spans.NextID(), Cause: cause,
			App: h.ref.App, Obj: h.ref.ID, Method: "replicaUpdate",
			Origin: rt.Node(), Target: peer, Kind: trace.SpanPropagate,
			Start: start,
		}
		if syncDelivered < needSync {
			if _, err := rt.st.Call(p, peer, PubService, "replicaUpdate", body, replicaCallTimeout); err != nil {
				sp.Wire = rt.world.s.Now() - start
				sp.Err = err.Error()
				rt.world.observeSpan(sp)
				rt.dropPeer(h, rs, peer, err)
				continue
			}
			syncDelivered++
		} else {
			if err := rt.st.Post(p, peer, PubService, "replicaUpdate", body); err != nil {
				sp.Err = err.Error()
				rt.world.observeSpan(sp)
				continue
			}
		}
		sp.Wire = rt.world.s.Now() - start
		rt.world.observeSpan(sp)
	}
	return syncDelivered, state
}

// rollbackWrite undoes a synchronous-fan-out write (strong, or eventual
// with MinSync > 0) that reached no peer at all: the pre-write state is
// swapped back in and the version bump reverted, so the caller's retry
// (against the repaired or promoted set) re-executes it exactly once in
// a lineage that can actually keep it.  Called with the fan lock held.
func (rt *Runtime) rollbackWrite(h *hostedObj, rs *replState, undo []byte) error {
	inst, err := rt.materialize(h.ref.Class, undo)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	h.instance = inst
	rs.shipped = nil
	rs.version--
	rt.mu.Unlock()
	rt.world.writeAborts.Inc()
	return nil
}

// dropPeer removes an unreachable peer from the primary's fan-out set.
// The AppOA's set registration still lists it until repair, but version
// election at promotion prefers fresher survivors, so a dropped (stale)
// peer loses any election it could corrupt.
func (rt *Runtime) dropPeer(h *hostedObj, rs *replState, peer string, cause error) {
	rt.mu.Lock()
	rs.peers = slices.DeleteFunc(slices.Clone(rs.peers), func(n string) bool { return n == peer })
	rt.mu.Unlock()
	rt.world.emit(trace.Event{Kind: trace.ReplicaDropped, Node: peer,
		App: h.ref.App, Obj: h.ref.ID, Detail: "unreachable from " + rt.Node() + ": " + cause.Error()})
}
