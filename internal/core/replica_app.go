package core

// AppOA-side (origin) half of the replication subsystem: materializing a
// replica set for an object, advertising it to callers (locate) and the
// directory, healing the set when members die, and promoting a surviving
// replica when the primary's node fails.  The PubOA half — serving reads
// at replicas, fanning out writes — lives in replica.go.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"jsymphony/internal/nas"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/trace"
)

// Write-authority leases.  The origin AppOA is the authority on who the
// primary is; it leases that role in time slices.  A primary only
// executes calls while its grant is valid (Runtime.invoke checks it), so
// a primary the AppOA can no longer reach self-fences at most authTTL
// after the last grant that might have been delivered — and a promotion
// that waits out that horizon can install a survivor knowing the deposed
// copy will never ack another write into its abandoned lineage.  authTTL
// bounds how long a cut-off primary keeps serving; authPeriod (and the
// per-grant call budget, authGrantBudget) keep renewals comfortably
// inside it: three consecutive lost grants are needed to fence a healthy
// primary.
const (
	authTTL         = 600 * time.Millisecond
	authPeriod      = 200 * time.Millisecond
	authGrantBudget = 100 * time.Millisecond
)

// Replicate marks the object replicated under pol: JRS materializes
// pol.N read replicas spread across the installation's sites, callers
// route the declared read methods to the nearest live copy, and writes
// keep going to the primary, which propagates them per pol.Mode.
// Replicating an already-replicated object replaces its set.
func (o *Object) Replicate(p sched.Proc, pol replica.Policy) error {
	return o.app.Replicate(p, o.id, pol)
}

// Replicate is the handle-free form of Object.Replicate.
func (a *App) Replicate(p sched.Proc, id uint64, pol replica.Policy) error {
	pol = pol.WithDefaults()
	if err := pol.Validate(); err != nil {
		return err
	}
	e, err := a.entry(id)
	if err != nil {
		return err
	}
	a.dropReplicas(p, e)
	a.mu.Lock()
	e.pol = &pol
	a.mu.Unlock()
	if err := a.materializeReplicas(p, e, nil); err != nil {
		a.mu.Lock()
		e.pol = nil
		a.mu.Unlock()
		return err
	}
	// Member failures must surface even when checkpoint recovery is off:
	// promotion and set healing hang off the failure detector.
	a.world.ArmFailureDetector()
	a.ensureAuthRenewer()
	a.mu.Lock()
	loc := e.location
	members := strings.Join(e.replicas, ",")
	a.mu.Unlock()
	a.world.emit(trace.Event{Kind: trace.ReplicaCreated, Node: loc, App: a.id, Obj: id,
		Detail: pol.String() + " -> " + members})
	return nil
}

// materializeReplicas brings the entry's replica set up to its policy's
// size: select nodes (spread across sites, never the primary or an
// existing member), load the class there, register the peers at the
// primary, and seed each new member from the primary's snapshot.
func (a *App) materializeReplicas(p sched.Proc, e *objEntry, exclude []string) error {
	a.mu.Lock()
	pol := *e.pol
	loc := e.location
	ref := e.ref
	have := e.replicas
	constr := e.constr
	a.mu.Unlock()
	want := pol.N - len(have)
	if want <= 0 {
		return nil
	}
	excl := append([]string{loc}, have...)
	excl = append(excl, exclude...)
	eff := constr
	if eff == nil {
		eff = a.world.DefaultConstraints()
	}
	// Ask for more candidates than needed so the site spread has room to
	// diversify, falling back toward a smaller (degraded) set when the
	// installation cannot provide a full one.
	var cands []string
	var err error
	for n := want * 2; n >= 1; n-- {
		cands, err = nas.SelectNodes(p, a.rt.st, a.world.dirNode, nas.SelectOpts{
			N: n, Constr: eff, Exclude: excl, Spread: true, Reserve: false,
		})
		if err == nil && len(cands) > 0 {
			break
		}
	}
	if len(cands) == 0 {
		return fmt.Errorf("core: no nodes for replica set of %s/%d: %w", ref.App, ref.ID, err)
	}
	chosen := replica.Spread(cands, want, a.siteOf)
	// A node can only host a copy once the class is loaded there (§4.3).
	ready := make([]string, 0, len(chosen))
	cb := rmi.MustMarshal(codebaseReq{Classes: []string{ref.Class}})
	for _, n := range chosen {
		if _, err := a.rt.st.Call(p, n, PubService, "loadCodebase", cb, 10*time.Second); err != nil {
			continue
		}
		ready = append(ready, n)
	}
	if len(ready) == 0 {
		return fmt.Errorf("core: no replica node could load class %s", ref.Class)
	}
	peers, err := a.seedSet(p, e, loc, ref, pol, have, ready, false)
	if err != nil {
		return err
	}
	a.mu.Lock()
	e.replicas = peers
	a.mu.Unlock()
	a.publishRSet(p, e)
	return nil
}

// seedSet is the seeding sequence of a new or moved set.  It registers
// have and fresh as the primary's peers first, then seeds fresh from the
// primary's snapshot: a write racing the seed then creates the replica
// itself, and the older seed is version-skipped.  If some of fresh could
// not be seeded, the primary is re-configured to have plus those that
// were.  It returns the primary's peers, a fresh sorted slice.  A
// growing set (force unset) with no member at all is an error; a
// re-seed after a move (force) shrinks to the members that took it,
// possibly none.
func (a *App) seedSet(p sched.Proc, e *objEntry, loc string, ref Ref, pol replica.Policy, have, fresh []string, force bool) ([]string, error) {
	peers := slices.Concat(have, fresh)
	sort.Strings(peers)
	if err := a.configurePrimary(p, e, loc, ref, pol, peers); err != nil {
		return nil, err
	}
	snap, err := a.memberSnapshot(p, loc, ref)
	if err != nil {
		return nil, err
	}
	seeded := a.seedMembers(p, ref, pol, loc, fresh, snap, force)
	if len(seeded) != len(fresh) {
		peers = slices.Concat(have, seeded)
		sort.Strings(peers)
		if len(peers) == 0 && !force {
			return nil, fmt.Errorf("core: no replica of %s/%d could be seeded", ref.App, ref.ID)
		}
		_ = a.configurePrimary(p, e, loc, ref, pol, peers)
	}
	return peers, nil
}

// configurePrimary installs the fan-out state at the node hosting the
// writable copy, granting it write authority for the next authTTL.  The
// entry's grant horizon is stamped before the call goes out so a later
// promotion fences conservatively even if this call's outcome is lost.
func (a *App) configurePrimary(p sched.Proc, e *objEntry, loc string, ref Ref, pol replica.Policy, peers []string) error {
	until := a.world.s.Now() + authTTL
	a.mu.Lock()
	if until > e.authHorizon {
		e.authHorizon = until
	}
	a.mu.Unlock()
	body := rmi.MustMarshal(replicaConfigureReq{
		App: ref.App, ID: ref.ID, Peers: peers,
		Mode: pol.Mode, Lease: pol.Lease, Reads: pol.Reads,
		AuthUntil: until, MinSync: pol.MinSync,
	})
	_, err := a.rt.st.Call(p, loc, PubService, "replicaConfigure", body, replicaCallTimeout)
	return err
}

// ensureAuthRenewer starts the per-application authority-renewal proc
// (idempotent).  It periodically re-leases the primary role of every
// replicated entry; an entry whose primary is being replaced (promoting)
// is skipped so the fence in promoteEntry can expire.
func (a *App) ensureAuthRenewer() {
	a.mu.Lock()
	if a.authOn || a.done {
		a.mu.Unlock()
		return
	}
	a.authOn = true
	a.mu.Unlock()
	a.world.s.Spawn("oas.authlease:"+a.id, func(p sched.Proc) {
		var r authRenewal
		for {
			p.Sleep(authPeriod)
			a.world.mu.Lock()
			down := a.world.shutDown
			a.world.mu.Unlock()
			if down {
				// Installation shutdown without Unregister (e.g. a durable
				// app whose objects outlive the world): stop renewing.
				return
			}
			if !a.renewAuthority(p, &r) {
				return
			}
		}
	})
}

// authRenewal is the renewer proc's scratch, reused from tick to tick:
// the entries to renew, sorted by ID, and the batch being filled.
type authRenewal struct {
	targets []*objEntry
	batch   rmi.Batch
}

// authGroup is the renewal targets whose primary is on one node.
type authGroup struct {
	loc     string
	entries []*objEntry
}

// renewAuthority is one tick of the renewer: it renews every replicated
// entry's primary in ID order and reports false once the application
// is unregistered.
func (a *App) renewAuthority(p sched.Proc, r *authRenewal) bool {
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return false
	}
	r.targets = r.targets[:0]
	for _, e := range a.objs {
		if !e.freed && e.pol != nil && !e.promoting && len(e.replicas) > 0 {
			r.targets = append(r.targets, e)
		}
	}
	a.mu.Unlock()
	slices.SortFunc(r.targets, func(x, y *objEntry) int { return cmp.Compare(x.ref.ID, y.ref.ID) })
	a.renewAuthorityBatched(p, r)
	return true
}

// renewAuthorityBatched groups the renewal targets by primary node and
// sends one replicaAuthBatch RMI per node carrying every grant for that
// node (ROADMAP "Per-node grant batching").  With the old per-object
// walk, a node hosting M primaries cost M RMIs per tick — and a *dead*
// node burned M × authGrantBudget, delaying the grants of healthy
// primaries behind it.  Batched, it is one RMI and at most one budget
// per node per tick, whatever M is.  Best effort like before: a batch
// that cannot be delivered simply lets those primaries run out and
// self-fence.  Horizons move before the send, never on its outcome — a
// failed call may still have delivered the request.  Nodes go in the
// order of their first target; an installation has a few of them, so a
// linear scan finds a target's group.
func (a *App) renewAuthorityBatched(p sched.Proc, r *authRenewal) {
	var groups []authGroup
	for _, e := range r.targets {
		a.mu.Lock()
		skip := e.freed || e.pol == nil || e.promoting
		loc := e.location
		a.mu.Unlock()
		if skip {
			continue
		}
		i := slices.IndexFunc(groups, func(g authGroup) bool { return g.loc == loc })
		if i < 0 {
			i = len(groups)
			groups = append(groups, authGroup{loc: loc})
		}
		groups[i].entries = append(groups[i].entries, e)
	}
	for _, g := range groups {
		r.batch = rmi.Batch{Buf: r.batch.Buf[:0]}
		for _, e := range g.entries {
			a.mu.Lock()
			if e.freed || e.pol == nil || e.promoting || e.location != g.loc {
				a.mu.Unlock()
				continue
			}
			ref := e.ref
			until := a.world.s.Now() + authTTL
			if until > e.authHorizon {
				e.authHorizon = until
			}
			a.mu.Unlock()
			rmi.MustAppendTo(&r.batch, replicaAuthRenewReq{App: ref.App, ID: ref.ID, Until: until})
		}
		if r.batch.Len() == 0 {
			continue
		}
		a.world.authBatches.Inc()
		a.world.authGrants.Add(int64(r.batch.Len()))
		body := rmi.MustMarshal(r.batch)
		_, _ = a.rt.st.Call(p, g.loc, PubService, "replicaAuthBatch", body, authGrantBudget)
	}
}

// memberSnapshot fetches a member's current state + version.
func (a *App) memberSnapshot(p sched.Proc, node string, ref Ref) (replicaSnapshotResp, error) {
	return rmi.Ask[replicaSnapshotReq, replicaSnapshotResp](p, a.rt.st, node, PubService, "replicaSnapshot",
		replicaSnapshotReq{App: ref.App, ID: ref.ID}, replicaCallTimeout)
}

// seedMembers ships a snapshot to each listed node and returns the nodes
// that accepted it.
func (a *App) seedMembers(p sched.Proc, ref Ref, pol replica.Policy, primary string, nodes []string, snap replicaSnapshotResp, force bool) []string {
	body := rmi.MustMarshal(replicaUpdateReq{
		Ref: ref, State: snap.State, Version: snap.Version,
		AsOf: a.world.s.Now(), Lease: pol.Lease, Mode: pol.Mode,
		Primary: primary, Force: force,
	})
	seeded := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if _, err := a.rt.st.Call(p, n, PubService, "replicaUpdate", body, replicaCallTimeout); err != nil {
			continue
		}
		seeded = append(seeded, n)
	}
	return seeded
}

// dropReplicas tears the entry's replica set down (free, or replacement
// by a new Replicate).  Best effort: dead members just stay gone.
func (a *App) dropReplicas(p sched.Proc, e *objEntry) {
	a.mu.Lock()
	reps := e.replicas
	had := e.pol != nil
	loc := e.location
	ref := e.ref
	e.replicas = nil
	e.pol = nil
	a.mu.Unlock()
	if !had && len(reps) == 0 {
		return
	}
	teardown := rmi.MustMarshal(replicaConfigureReq{App: ref.App, ID: ref.ID})
	_, _ = a.rt.st.Call(p, loc, PubService, "replicaConfigure", teardown, replicaCallTimeout)
	drop := rmi.MustMarshal(replicaDropReq{App: ref.App, ID: ref.ID})
	for _, n := range reps {
		_, _ = a.rt.st.Call(p, n, PubService, "replicaDrop", drop, replicaCallTimeout)
	}
	a.unpublishRSet(p, ref)
}

// reconfigureAfterMove re-establishes replication after the primary
// migrated: the new host has a fresh (unreplicated) copy whose update
// counter restarts, so every member is force-reseeded from it.
func (a *App) reconfigureAfterMove(p sched.Proc, e *objEntry) {
	a.mu.Lock()
	pol := *e.pol
	loc := e.location
	ref := e.ref
	members := e.replicas
	a.mu.Unlock()
	peers, err := a.seedSet(p, e, loc, ref, pol, nil, members, true)
	if err != nil {
		return
	}
	if len(peers) != len(members) {
		a.mu.Lock()
		e.replicas = peers
		a.mu.Unlock()
	}
	a.publishRSet(p, e)
}

// promoteEntry turns the freshest surviving replica into the primary
// after the node hosting the primary failed — availability restored from
// live copies, without waiting for a checkpoint restore.  Election is by
// highest version (ties broken by name), so a member that was dropped
// from the fan-out and went stale loses to any member that kept applying
// writes.
//
// "Failed" may be a false death: a partition can hide a primary that is
// still alive and still holding client requests that will be delivered
// when the link heals.  Before electing, promotion therefore fences the
// old primary: it stops the authority renewals for this entry and waits
// out the horizon of the last grant that might have reached it.  Past
// that instant the deposed copy deflects every call (invoke checks the
// grant), so nothing it does after the heal can ack a write the promoted
// lineage misses.
func (a *App) promoteEntry(p sched.Proc, e *objEntry, deadNode string) bool {
	a.mu.Lock()
	if e.freed || e.pol == nil || e.location != deadNode || e.promoting {
		a.mu.Unlock()
		return false
	}
	e.promoting = true
	horizon := e.authHorizon
	pol := *e.pol
	ref := e.ref
	var survivors []string
	for _, n := range e.replicas {
		if n != deadNode {
			survivors = append(survivors, n)
		}
	}
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		e.promoting = false
		a.mu.Unlock()
	}()
	if len(survivors) == 0 {
		return false
	}
	watch := sched.StartWatch(a.world.s)
	if wait := horizon - a.world.s.Now(); wait > 0 {
		p.Sleep(wait)
	}
	sort.Strings(survivors)
	bestNode, bestVersion := "", uint64(0)
	alive := make([]string, 0, len(survivors))
	for _, n := range survivors {
		snap, err := a.memberSnapshot(p, n, ref)
		if err != nil {
			continue
		}
		alive = append(alive, n)
		if bestNode == "" || snap.Version > bestVersion {
			bestNode, bestVersion = n, snap.Version
		}
	}
	if bestNode == "" {
		return false
	}
	peers := make([]string, 0, len(alive))
	for _, n := range alive {
		if n != bestNode {
			peers = append(peers, n)
		}
	}
	// Configuring the survivor clears its replica role and keeps its
	// version, so update ordering stays monotonic across the promotion.
	if err := a.configurePrimary(p, e, bestNode, ref, pol, peers); err != nil {
		return false
	}
	a.mu.Lock()
	e.location = bestNode
	e.replicas = peers
	// Remember the deposed lineage: if deadNode was only partitioned, a
	// fenced zombie copy (primary-role replState, fan-out state, the
	// instance itself) is still hosted there and must be torn down when
	// the node is seen again (cleanupZombies).
	fenced := false
	for _, n := range e.fenced {
		if n == deadNode {
			fenced = true
			break
		}
	}
	if !fenced {
		e.fenced = append(e.fenced, deadNode)
	}
	a.mu.Unlock()
	a.rt.ForgetLocation(ref) // home-node caches now point at the dead node
	a.world.emit(trace.Event{Kind: trace.ReplicaPromoted, Node: bestNode, App: a.id, Obj: ref.ID,
		Detail: fmt.Sprintf("from %s at v%d", deadNode, bestVersion)})
	a.world.promotions.Inc()
	a.world.promotionUs.ObserveDuration(watch.Elapsed())
	_ = a.materializeReplicas(p, e, []string{deadNode})
	a.publishRSet(p, e)
	return true
}

// repairReplicaSets heals every set that lost a non-primary member to
// the dead node: drop it from the fan-out and grow a replacement.
func (a *App) repairReplicaSets(p sched.Proc, deadNode string) {
	a.mu.Lock()
	var hit []*objEntry
	for _, e := range a.objs {
		if e.freed || e.pol == nil {
			continue
		}
		for _, n := range e.replicas {
			if n == deadNode {
				hit = append(hit, e)
				break
			}
		}
	}
	a.mu.Unlock()
	sort.Slice(hit, func(i, j int) bool { return hit[i].ref.ID < hit[j].ref.ID })
	for _, e := range hit {
		a.mu.Lock()
		out := make([]string, 0, len(e.replicas))
		for _, n := range e.replicas {
			if n != deadNode {
				out = append(out, n)
			}
		}
		e.replicas = out
		pol := *e.pol
		loc := e.location
		ref := e.ref
		a.mu.Unlock()
		a.world.emit(trace.Event{Kind: trace.ReplicaDropped, Node: deadNode,
			App: a.id, Obj: ref.ID, Detail: "node failed"})
		_ = a.configurePrimary(p, e, loc, ref, pol, out)
		_ = a.materializeReplicas(p, e, []string{deadNode})
		a.publishRSet(p, e)
	}
}

// hasFencedOn reports whether any entry remembers a deposed primary
// lineage on node (the post-heal cleanup trigger).
func (a *App) hasFencedOn(node string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.objs {
		for _, n := range e.fenced {
			if n == node {
				return true
			}
		}
	}
	return false
}

// cleanupZombies tears down deposed primary lineages on a node that
// just healed (partition lifted, detector reports it recovered).  The
// zombie is a fully intact copy: instance, primary-role replState, fan
// lock.  It is already harmless for writes — its authority grant lapsed
// long ago, so invoke deflects everything — but it leaks memory, its
// primary-role replState blocks replicaApply from ever re-seeding this
// node as a replica, and a stray locate answer could bounce callers off
// it forever.  Teardown is the explicit "you were deposed" message the
// fencing design deferred to the heal: free the hosted instance and
// drop any replica-role leftover.  A fenced node that meanwhile became
// current again (the set healed back onto it) is left alone.
func (a *App) cleanupZombies(p sched.Proc, node string) {
	a.mu.Lock()
	var hit []*objEntry
	for _, e := range a.objs {
		for _, n := range e.fenced {
			if n == node {
				hit = append(hit, e)
				break
			}
		}
	}
	a.mu.Unlock()
	sort.Slice(hit, func(i, j int) bool { return hit[i].ref.ID < hit[j].ref.ID })
	for _, e := range hit {
		a.mu.Lock()
		out := e.fenced[:0]
		for _, n := range e.fenced {
			if n != node {
				out = append(out, n)
			}
		}
		e.fenced = out
		current := e.location == node
		for _, n := range e.replicas {
			if n == node {
				current = true
			}
		}
		ref := e.ref
		a.mu.Unlock()
		if current {
			continue
		}
		free := rmi.MustMarshal(freeReq{App: ref.App, ID: ref.ID})
		_, _ = a.rt.st.Call(p, node, PubService, "free", free, replicaCallTimeout)
		drop := rmi.MustMarshal(replicaDropReq{App: ref.App, ID: ref.ID})
		_, _ = a.rt.st.Call(p, node, PubService, "replicaDrop", drop, replicaCallTimeout)
		a.world.emit(trace.Event{Kind: trace.ReplicaDropped, Node: node,
			App: a.id, Obj: ref.ID, Detail: "post-heal zombie teardown"})
		a.world.zombieTeardowns.Inc()
	}
}

// hasReplicas reports whether any live object of this application is
// replicated (failure handling runs for such apps even with checkpoint
// recovery off).
func (a *App) hasReplicas() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.objs {
		if !e.freed && e.pol != nil && len(e.replicas) > 0 {
			return true
		}
	}
	return false
}

// ReplicaSetInfo describes one replicated object for inspection (shell
// "replicas" command, tests).
type ReplicaSetInfo struct {
	Ref Ref
	Set replica.Set
}

// ReplicaSets lists the application's replicated objects in handle order.
func (a *App) ReplicaSets() []ReplicaSetInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []ReplicaSetInfo
	for _, e := range a.objs {
		if !e.freed && e.pol != nil && len(e.replicas) > 0 {
			out = append(out, ReplicaSetInfo{Ref: e.ref, Set: e.rset()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ref.ID < out[j].Ref.ID })
	return out
}

// siteOf maps a node to its fabric site for spread placement ("" when
// unknown — real-time worlds then degrade to plain selection order).
func (a *App) siteOf(node string) string {
	if a.world.fab == nil {
		return ""
	}
	if m, ok := a.world.fab.ByName(node); ok {
		return m.Spec().Site
	}
	return ""
}

// publishRSet mirrors the entry's current set into the installation
// directory's registry (nas.Directory.ReplicaSets); the shell's
// "replicas" command reads App.ReplicaSets instead.
func (a *App) publishRSet(p sched.Proc, e *objEntry) {
	a.mu.Lock()
	set := e.rset()
	ref := e.ref
	a.mu.Unlock()
	if set.Empty() {
		a.unpublishRSet(p, ref)
		return
	}
	_ = nas.PutReplicaSet(p, a.rt.st, a.world.dirNode, nas.RSetInfo{
		Key: refKey(ref.App, ref.ID), Primary: set.Primary,
		Replicas: set.Replicas, Mode: string(set.Mode), Lease: set.Lease,
	})
}

// unpublishRSet removes the entry from the directory registry.
func (a *App) unpublishRSet(p sched.Proc, ref Ref) {
	_ = nas.DelReplicaSet(p, a.rt.st, a.world.dirNode, refKey(ref.App, ref.ID))
}
