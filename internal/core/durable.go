package core

// Durability: a per-node write-ahead log (internal/wal) behind the
// object store.  An object marked durable has every state-changing
// invocation appended to its home node's log before the ack is sent;
// appends from concurrent writers on the node coalesce into one group
// commit per flush interval, so a node pays one simulated fsync per
// interval instead of one per write.  Incremental checkpoints fold the
// synced log prefix into a base image when the log outgrows a size or
// age watermark.  After a crash — one node or the whole cluster — the
// surviving log plus the last checkpoint reconstruct every durable
// object, including replica sets and shard-group ring membership.
//
// The WAL composes with replication: on a replicated durable object the
// primary and each replica log the propagated state under a shared
// version counter, so replica.Policy.MinSync means "k *logged* copies
// before the ack", not merely k in-memory copies.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"jsymphony/internal/metrics"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/trace"
	"jsymphony/internal/wal"
)

// DurabilityOptions configures the per-node write-ahead logs.  A nil
// *DurabilityOptions in Options disables durability entirely (the
// pre-WAL behaviour: Store/Load snapshots only).
type DurabilityOptions struct {
	// Stable is the simulated stable-storage layer the logs live on.  It
	// survives World teardown, so a second World constructed over the
	// same Stable models a whole-cluster restart.  Nil allocates a fresh
	// one seeded with 1.
	Stable *wal.Stable
	// CommitInterval is the group-commit coalescing window: all appends
	// on a node within one interval share one flush.  Zero takes
	// DefaultCommitInterval; negative disables group commit and syncs
	// every durable write individually (the fsync-per-write baseline).
	CommitInterval time.Duration
}

// DefaultCommitInterval is the group-commit window when none is set.
const DefaultCommitInterval = 10 * time.Millisecond

// An incremental checkpoint folds the log once it exceeds
// checkpointBytes or once checkpointAge of scheduler time has passed
// since the last one.
const (
	checkpointBytes = 256 << 10
	checkpointAge   = 5 * time.Second
)

func (d DurabilityOptions) withDefaults() DurabilityOptions {
	if d.Stable == nil {
		d.Stable = wal.NewStable(1)
	}
	if d.CommitInterval == 0 {
		d.CommitInterval = DefaultCommitInterval
	}
	return d
}

// durState is one node's durability engine: the log front plus the
// writers parked on the next group commit.
type durState struct {
	mu       sync.Mutex
	log      *wal.Log
	media    *wal.Media
	waiters  []sched.Queue // parked until the covering flush syncs (true) or is lost (false)
	lastCkpt time.Duration
}

// Durability errors.
var errDurabilityLost = errors.New("oas: write lost before reaching stable storage")

const errNoDurability = "oas: durability not enabled"

// durObjKey is the WAL key for one object's state records.
func durObjKey(app string, id uint64) string {
	return fmt.Sprintf("o:%s/%d", app, id)
}

// durManifestKey is the WAL key for an application's durable-object
// manifest, logged on the app's home node.
func durManifestKey(app string) string { return "m:" + app }

// ---------------------------------------------------------------------
// wire structs

// durableReq marks a hosted object durable ("durable" pub method).
type durableReq struct {
	App   string
	ID    uint64
	Reads []string // methods that do not mutate state
}

// ---------------------------------------------------------------------
// runtime side

// durLoop is the per-node group-commit daemon: every commit interval it
// flushes the pending appends (one simulated fsync for the whole batch)
// and wakes the writers parked on it, then checkpoints if the log has
// crossed a watermark.
func (rt *Runtime) durLoop(p sched.Proc) {
	tick := rt.world.durOpts.CommitInterval
	if tick <= 0 {
		tick = DefaultCommitInterval
	}
	for {
		p.Sleep(tick)
		rt.world.mu.Lock()
		down := rt.world.shutDown
		rt.world.mu.Unlock()
		if down {
			rt.durFailWaiters()
			return
		}
		if rt.mach != nil && !rt.mach.Alive() {
			continue
		}
		rt.durFlush(p)
		rt.durMaybeCheckpoint(p)
	}
}

// durFlush performs one commit: snapshot the pending tail, pay the disk
// for it, mark it synced, and tell the writers parked on it how it went.
// It reports whether the batch reached stable storage.
func (rt *Runtime) durFlush(p sched.Proc) bool {
	d := rt.dur
	d.mu.Lock()
	t, ok := d.log.Flush()
	waiters := d.waiters
	d.waiters = nil
	d.mu.Unlock()
	synced := false
	if ok {
		rt.durChargeDisk(p, t.Bytes)
		d.mu.Lock()
		synced = d.log.Sync(t)
		d.mu.Unlock()
		if synced {
			rt.noteFlush(t)
		}
	}
	for _, q := range waiters {
		q.Put(synced, 0)
	}
	return synced
}

// durMaybeCheckpoint folds the synced log prefix into the base image
// when the log has outgrown the size or age watermark.
func (rt *Runtime) durMaybeCheckpoint(p sched.Proc) {
	d := rt.dur
	st := d.media.Stats()
	now := rt.world.s.Now()
	d.mu.Lock()
	last := d.lastCkpt
	d.mu.Unlock()
	if st.LogBytes < checkpointBytes && now-last < checkpointAge {
		return
	}
	d.mu.Lock()
	plan, ok := d.log.PrepareCheckpoint()
	d.lastCkpt = now
	d.mu.Unlock()
	if !ok {
		return
	}
	rt.durChargeDisk(p, plan.Bytes)
	d.mu.Lock()
	applied := d.log.ApplyCheckpoint(plan)
	d.mu.Unlock()
	if applied {
		rt.world.reg.Counter(metrics.Label("js_wal_checkpoints_total", "node", rt.Node())).Inc()
		rt.world.reg.Counter(metrics.Label("js_wal_checkpoint_bytes_total", "node", rt.Node())).Add(int64(plan.Bytes))
	}
}

// durAppend appends one record to the node's log.  With wait=true the
// call blocks until the record is on stable storage: either parked on
// the next group commit, or — when CommitInterval is negative — paying
// its own private fsync.  It returns the scheduler time the caller
// stalled for durability.  With wait=false the append is fire-and-
// forget (metadata records; the next group commit carries them), and p
// may be nil.
func (rt *Runtime) durAppend(p sched.Proc, rec wal.Record, wait bool) (time.Duration, error) {
	d := rt.dur
	if d == nil {
		return 0, nil
	}
	rt.world.reg.Counter(metrics.Label("js_wal_appends_total", "node", rt.Node())).Inc()
	if !wait {
		d.mu.Lock()
		d.log.Append(rec)
		d.mu.Unlock()
		return 0, nil
	}
	watch := sched.StartWatch(rt.world.s)
	if rt.world.durOpts.CommitInterval < 0 {
		// fsync-per-write baseline: commit just this write.
		d.mu.Lock()
		d.log.Append(rec)
		d.mu.Unlock()
		if !rt.durFlush(p) {
			return 0, errDurabilityLost
		}
		return watch.Elapsed(), nil
	}
	// Group commit: park on the daemon's next flush.
	q := rt.world.s.NewQueue("oas.walwait:" + rt.Node())
	d.mu.Lock()
	d.log.Append(rec)
	d.waiters = append(d.waiters, q)
	d.mu.Unlock()
	v, recvOK := p.Recv(q)
	stall := watch.Elapsed()
	rt.world.reg.Histogram("js_wal_commit_wait_us", nil).ObserveDuration(stall)
	if !recvOK {
		return 0, errDurabilityLost
	}
	if synced, _ := v.(bool); !synced {
		return 0, errDurabilityLost
	}
	return stall, nil
}

// durChargeDisk pays the simulated disk for one write of the given
// size.  Real-proc callers (shell) and nil procs skip the charge.
func (rt *Runtime) durChargeDisk(p sched.Proc, bytes int) {
	if rt.mach == nil || p == nil {
		return
	}
	if a := sched.Actor(p); a != nil {
		rt.mach.DiskWrite(a, bytes)
	}
}

// noteFlush counts one completed group commit.
func (rt *Runtime) noteFlush(t wal.FlushTicket) {
	rt.world.reg.Counter(metrics.Label("js_wal_flushes_total", "node", rt.Node())).Inc()
	rt.world.reg.Counter(metrics.Label("js_wal_flush_bytes_total", "node", rt.Node())).Add(int64(t.Bytes))
	rt.world.reg.Histogram("js_wal_batch_records", nil).Observe(int64(t.Records))
}

// durCrash models the node's durability state at crash time: pending
// (unflushed) appends vanish, the media tears its unsynced tail, and
// every parked writer learns its write was lost.
func (rt *Runtime) durCrash() {
	d := rt.dur
	if d == nil {
		return
	}
	d.mu.Lock()
	d.log.DropPending()
	d.media.Crash()
	d.mu.Unlock()
	rt.durFailWaiters()
}

// durRepair re-reads the media after a crash, truncating the torn tail
// so the node can log again.  Called on node restart.
func (rt *Runtime) durRepair() {
	d := rt.dur
	if d == nil {
		return
	}
	d.mu.Lock()
	rep := d.media.Replay()
	d.mu.Unlock()
	if rep.TornBytes > 0 {
		rt.world.reg.Counter("js_wal_torn_bytes_total").Add(int64(rep.TornBytes))
	}
}

// durFailWaiters releases writers parked on a group commit that will
// never happen (node crash, world shutdown).
func (rt *Runtime) durFailWaiters() {
	d := rt.dur
	if d == nil {
		return
	}
	d.mu.Lock()
	waiters := d.waiters
	d.waiters = nil
	d.mu.Unlock()
	for _, q := range waiters {
		q.Put(false, 0)
	}
}

// makeDurable handles the "durable" pub method: mark a hosted object
// durable and log its current state as the baseline record.
func (rt *Runtime) makeDurable(req durableReq) error {
	if rt.dur == nil {
		return errors.New(errNoDurability)
	}
	key := objKey{req.App, req.ID}
	rt.mu.Lock()
	h, ok := rt.hosted[key]
	if !ok {
		rt.mu.Unlock()
		return errors.New(errObjMoved)
	}
	h.durable = true
	h.durReads = methodSet(req.Reads)
	if h.durVer == 0 {
		h.durVer = 1
	}
	rt.mu.Unlock()
	_, err := rt.durLogState(nil, h, false)
	return err
}

// durLogState logs the object's current state; with wait it blocks until
// the record is on stable storage and returns the durability stall for
// the span (see durAppend).
func (rt *Runtime) durLogState(p sched.Proc, h *hostedObj, wait bool) (time.Duration, error) {
	rt.mu.Lock()
	inst := h.instance
	ver := h.durVer
	ref := h.ref
	rt.mu.Unlock()
	state, err := rmi.Marshal(inst)
	if err != nil {
		return 0, fmt.Errorf("oas: serialize for durability: %w", err)
	}
	return rt.durAppend(p, wal.Record{
		Kind: wal.KindUpdate, Key: durObjKey(ref.App, ref.ID), Ver: ver, Data: state,
	}, wait)
}

// sortedMethods returns the map's keys sorted, for deterministic wire
// encoding.
func sortedMethods(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// methodSet is sortedMethods' inverse: the lookup form of a method list.
func methodSet(methods []string) map[string]bool {
	set := make(map[string]bool, len(methods))
	for _, m := range methods {
		set[m] = true
	}
	return set
}

// ---------------------------------------------------------------------
// world side: replay and status

// walSnapshot is the merged view of every node's replayed log: the
// newest logged state per key across all media.
type walSnapshot struct {
	entries map[string]wal.Entry
	reps    []wal.Replay
}

// walReplayAll replays every node's log and merges per-key states by
// version (primary and replica log under a shared counter, so max-Ver
// wins coherently).  The replay's disk reads are charged to the given
// runtime's machine — the reboot/disk-reattach model: a dead node's
// platters are still readable.  Returns nil when durability is off.
func (w *World) walReplayAll(p sched.Proc, charge *Runtime) *walSnapshot {
	if w.durOpts == nil {
		return nil
	}
	watch := sched.StartWatch(w.s)
	snap := &walSnapshot{entries: make(map[string]wal.Entry)}
	for _, name := range w.durOpts.Stable.Nodes() {
		m := w.durOpts.Stable.Node(name)
		rep := m.Replay()
		snap.reps = append(snap.reps, rep)
		if charge != nil && charge.mach != nil && p != nil {
			if a := sched.Actor(p); a != nil {
				charge.mach.DiskRead(a, rep.ReadBytes)
			}
		}
		if rep.TornBytes > 0 {
			w.reg.Counter("js_wal_torn_bytes_total").Add(int64(rep.TornBytes))
		}
		for k, e := range rep.Entries {
			if cur, ok := snap.entries[k]; !ok || e.Ver > cur.Ver {
				snap.entries[k] = e
			}
		}
	}
	w.reg.Histogram("js_wal_replay_us", nil).ObserveDuration(watch.Elapsed())
	return snap
}

// WALStatus reports every durability-enabled node's media statistics,
// in node-attach order.
func (w *World) WALStatus() []wal.Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []wal.Stats
	for _, name := range w.order {
		rt := w.runtimes[name]
		if rt != nil && rt.dur != nil {
			out = append(out, rt.dur.media.Stats())
		}
	}
	return out
}

// Durability returns the world's durability options (nil when the
// subsystem is disabled).
func (w *World) Durability() *DurabilityOptions { return w.durOpts }

// ---------------------------------------------------------------------
// app side: persist, manifest, recovery

// durManifest is the durable-object catalog one application logs on its
// home node: enough to re-materialize every durable object — placement
// hints, replica policies, shard-group ring membership — after a
// whole-cluster restart.
type durManifest struct {
	App     string
	Objects []durObjRec
	Groups  []durGroupRec
}

// durObjRec records one durable object.
type durObjRec struct {
	ID      uint64
	Class   string
	Node    string
	Reads   []string
	Replica *replica.Policy
	Group   string // owning shard group ("" for plain objects)
	Shard   string // shard member name within the group
}

// durGroupRec records one durable shard group; Shards lists the ring
// member names so a restore reproduces key ownership exactly (the ring
// hashes member names, never placement).
type durGroupRec struct {
	Name   string
	Class  string
	Spec   ShardSpec
	Shards []string
	// The ring and handoff parameters the group was built with (fixed:
	// shard.DefaultVnodes and the handoff constants), as GroupRecord
	// keeps them.
	Vnodes        int
	KeysMethod    string
	ExtractMethod string
	InstallMethod string
}

// persistDurable sends the "durable" marker to the object's host and
// tracks durability in the app's entry table.
func (a *App) persistDurable(p sched.Proc, id uint64, reads []string) error {
	a.mu.Lock()
	e, ok := a.objs[id]
	if !ok || e.freed {
		a.mu.Unlock()
		return fmt.Errorf("oas: no object %d in %s", id, a.id)
	}
	loc := e.location
	a.mu.Unlock()
	sorted := append([]string(nil), reads...)
	sort.Strings(sorted)
	body := rmi.MustMarshal(durableReq{App: a.id, ID: id, Reads: sorted})
	if _, err := a.rt.st.Call(p, loc, PubService, "durable", body, replicaCallTimeout); err != nil {
		return err
	}
	a.mu.Lock()
	e.durable = true
	e.durReads = sorted
	a.mu.Unlock()
	a.world.emit(trace.Event{Kind: trace.ObjStored, Node: loc, App: a.id, Obj: id, Detail: "durable (wal)"})
	return nil
}

// Persist marks the object durable (§4.7 extended): every state-
// changing invocation is appended to its host's write-ahead log before
// the ack, so the object survives node crashes and whole-cluster
// restarts with all acknowledged writes intact.  reads lists methods
// durability treats as read-only — they are never logged and never
// stall on a group commit.
func (o *Object) Persist(p sched.Proc, reads ...string) error {
	if o.app.rt.dur == nil {
		return errors.New(errNoDurability)
	}
	if err := o.app.persistDurable(p, o.id, reads); err != nil {
		return err
	}
	o.app.writeDurManifest(p)
	return nil
}

// Persist marks every shard of the group durable, in ring order.  reads
// defaults to the spec's declared read methods; the whole group —
// including its consistent-hash ring membership — is then recorded in
// the application's WAL manifest, so a cluster restart reproduces key
// ownership exactly.
func (g *ShardGroup) Persist(p sched.Proc, reads ...string) error {
	a := g.app
	if a.rt.dur == nil {
		return errors.New(errNoDurability)
	}
	eff := reads
	if len(eff) == 0 {
		eff = g.spec.Reads
	}
	g.mu.Lock()
	names := g.ring.Members()
	objs := make([]*Object, len(names))
	for i, n := range names {
		objs[i] = g.shards[n]
	}
	g.mu.Unlock()
	for i, obj := range objs {
		if obj == nil {
			continue
		}
		if err := a.persistDurable(p, obj.id, eff); err != nil {
			return fmt.Errorf("oas: persist shard %s: %w", names[i], err)
		}
	}
	g.mu.Lock()
	g.durable = true
	g.durReads = append([]string(nil), eff...)
	g.mu.Unlock()
	a.writeDurManifest(p)
	return nil
}

// buildDurManifest snapshots the app's durable catalog.  Slices are
// sorted so the encoding is deterministic.
func (a *App) buildDurManifest() durManifest {
	man := durManifest{App: a.id}
	type owner struct{ group, shard string }
	owners := make(map[uint64]owner)
	a.mu.Lock()
	groups := make([]*ShardGroup, 0, len(a.shardGroups))
	gnames := make([]string, 0, len(a.shardGroups))
	for name := range a.shardGroups {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		groups = append(groups, a.shardGroups[name])
	}
	a.mu.Unlock()
	for _, g := range groups {
		g.mu.Lock()
		if g.durable {
			rec := durGroupRec{Name: g.name, Class: g.class, Spec: g.spec, Vnodes: g.ring.Vnodes(),
				KeysMethod: keysMethod, ExtractMethod: extractMethod, InstallMethod: installMethod}
			for _, sname := range g.ring.Members() {
				rec.Shards = append(rec.Shards, sname)
				if obj := g.shards[sname]; obj != nil {
					owners[obj.id] = owner{group: g.name, shard: sname}
				}
			}
			man.Groups = append(man.Groups, rec)
		}
		g.mu.Unlock()
	}
	a.mu.Lock()
	ids := make([]uint64, 0, len(a.objs))
	for id := range a.objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := a.objs[id]
		if e.freed || !e.durable {
			continue
		}
		rec := durObjRec{
			ID: id, Class: e.ref.Class, Node: e.location,
			Reads: append([]string(nil), e.durReads...), Replica: e.pol,
		}
		if o, ok := owners[id]; ok {
			rec.Group, rec.Shard = o.group, o.shard
		}
		man.Objects = append(man.Objects, rec)
	}
	a.mu.Unlock()
	return man
}

// writeDurManifest logs the app's durable catalog on its home node.
// Fire-and-forget: the next group commit carries it.
func (a *App) writeDurManifest(p sched.Proc) {
	if a.rt.dur == nil {
		return
	}
	man := a.buildDurManifest()
	data, err := rmi.Marshal(&man)
	if err != nil {
		return
	}
	a.mu.Lock()
	a.durManSeq++
	seq := a.durManSeq
	a.mu.Unlock()
	_, _ = a.rt.durAppend(p, wal.Record{
		Kind: wal.KindUpdate, Key: durManifestKey(a.id), Ver: seq, Data: data,
	}, false)
}

// hasDurable reports whether the app has any live durable object, for
// arming failure-triggered recovery.
func (a *App) hasDurable() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.objs {
		if !e.freed && e.durable {
			return true
		}
	}
	return false
}

// DurableRecovery reports one application's whole-cluster restore: the
// re-materialized objects keyed by their *original* ids, the restored
// shard groups, and what the WAL had no state for — plain objects by
// original id, shard members by ring name.
type DurableRecovery struct {
	App        string
	Objects    map[uint64]*Object
	Groups     []*ShardGroup
	Lost       []uint64
	LostShards []string
}

// RecoverDurable rebuilds every durable object recorded in the WAL
// manifests after a whole-cluster restart: a fresh World constructed
// over the same wal.Stable replays each node's log, decodes the
// application manifests, and re-materializes plain objects, replica
// sets, and shard groups (with identical ring membership).  Objects the
// log has no state for — they never reached stable storage — are
// reported in Lost.
func (a *App) RecoverDurable(p sched.Proc) ([]DurableRecovery, error) {
	if a.rt.dur == nil {
		return nil, errors.New(errNoDurability)
	}
	snap := a.world.walReplayAll(p, a.rt)
	var keys []string
	for k := range snap.entries {
		if len(k) > 2 && k[:2] == "m:" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []DurableRecovery
	for _, k := range keys {
		var man durManifest
		if err := rmi.Unmarshal(snap.entries[k].Data, &man); err != nil {
			continue
		}
		out = append(out, a.restoreManifest(p, man, snap))
	}
	a.writeDurManifest(p)
	return out, nil
}

// restoreManifest re-materializes one application manifest into this
// app: plain objects first, then shard groups over their recorded
// member shards (which the plain pass therefore skips).
func (a *App) restoreManifest(p sched.Proc, man durManifest, snap *walSnapshot) DurableRecovery {
	rec := DurableRecovery{App: man.App, Objects: make(map[uint64]*Object)}
	for _, or := range man.Objects {
		if or.Group != "" {
			continue
		}
		if obj, err := a.restoreDurObj(p, man.App, or, snap); err != nil {
			rec.Lost = append(rec.Lost, or.ID)
		} else {
			rec.Objects[or.ID] = obj
		}
	}
	for _, gr := range man.Groups {
		g, lost, err := a.restoreDurGroup(p, man.App, gr, man.Objects, snap)
		rec.LostShards = append(rec.LostShards, lost...)
		if err == nil {
			rec.Groups = append(rec.Groups, g)
		}
	}
	return rec
}

// restoreDurObj re-materializes one durable object from its logged
// state under a fresh handle, re-creating its replica set when the
// manifest recorded a policy.
func (a *App) restoreDurObj(p sched.Proc, oldApp string, or durObjRec, snap *walSnapshot) (*Object, error) {
	ent, ok := snap.entries[durObjKey(oldApp, or.ID)]
	if !ok {
		return nil, fmt.Errorf("oas: the WAL has no state for %s/%d", oldApp, or.ID)
	}
	node := a.durPlacement(p, or.Node)
	if node == "" {
		return nil, fmt.Errorf("oas: no live node to restore %s/%d", oldApp, or.ID)
	}
	ref := a.newRef(or.Class)
	obj, err := a.adopt(p, ref, walImage(ref, ent, or.Reads), []string{node},
		objEntry{durable: true, durReads: append([]string(nil), or.Reads...)}, or.Replica)
	if err != nil {
		return obj, err
	}
	a.world.emit(trace.Event{Kind: trace.ObjRecovered, Node: node, App: a.id, Obj: ref.ID,
		Detail: fmt.Sprintf("wal restore of %s/%d", oldApp, or.ID)})
	return obj, nil
}

// durPlacement picks a node for a restored object: the recorded node if
// the directory reports it alive, else the first live candidate.
func (a *App) durPlacement(p sched.Proc, recorded string) string {
	cands := a.liveCandidates(p, nil, nil, "")
	for _, n := range cands {
		if n == recorded {
			return recorded
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return cands[0]
}

// restoreDurGroup re-materializes one durable shard group: each
// recorded ring member is restored as a shard object under its original
// member *name*, so consistent-hash key ownership is identical to the
// pre-crash group.  Members the WAL has no state for are reported lost
// and the group comes up over the survivors.
func (a *App) restoreDurGroup(p sched.Proc, oldApp string, gr durGroupRec, objRecs []durObjRec, snap *walSnapshot) (*ShardGroup, []string, error) {
	var lost []string
	g := newShardGroup(a, gr.Name, gr.Class, gr.Spec.withDefaults())
	g.durable = true
	g.durReads = append([]string(nil), g.spec.Reads...)
	// Index the manifest's members of this group by shard name.
	byShard := make(map[string]durObjRec)
	for _, or := range objRecs {
		if or.Group == gr.Name {
			byShard[or.Shard] = or
		}
	}
	g, err := g.assemble(p, gr.Shards, func(i int) (*Object, error) {
		if or, ok := byShard[gr.Shards[i]]; ok {
			if obj, err := a.restoreDurObj(p, oldApp, or, snap); err == nil {
				return obj, nil
			}
		}
		lost = append(lost, gr.Shards[i])
		return nil, nil
	}, trace.ShardGroupCreated, "restored from WAL")
	return g, lost, err
}

// shardIndex parses the numeric suffix of a "group#N" shard name; -1
// when the name does not match.
func shardIndex(group, name string) int {
	var i int
	if _, err := fmt.Sscanf(name, group+"#%d", &i); err != nil {
		return -1
	}
	return i
}
