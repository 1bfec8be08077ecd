package core

// Shard groups: consistent-hash key-space partitioning layered on the
// object model.  A group owns S shard objects — ordinary JS objects,
// placed spread across the installation, optionally each carrying its
// own replica set — and routes keyed invocations to the shard owning
// the key on an internal/shard ring.  Where replication (replica_app.go)
// scales *reads* of one hot object, sharding scales *writes*: S
// primaries execute disjoint slices of the key space in parallel.
//
// Rebalance reuses the existing machinery end to end: growing the ring
// hands the moved keys over through the shard class's handoff methods
// (Keys/Extract/Install by default), and moving a shard off a node is
// a plain object migration (Fig. 3) — the ring never changes for an
// evacuation, because shard identity, not placement, owns the keys.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"jsymphony/internal/heat"
	"jsymphony/internal/metrics"
	"jsymphony/internal/nas"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/shard"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
)

// Request classes keyed invocations enroll in the SLO engine under:
// declared reads are "read", everything else "write".
const (
	ClassRead  = "read"
	ClassWrite = "write"
)

// ShardSpec declares a shard group.
type ShardSpec struct {
	// Shards is the initial shard count (>= 1).
	Shards int
	// Replication, when non-nil, replicates every shard under this
	// policy: reads route to the nearest replica, a shard's primary
	// crash promotes a survivor — the group inherits all of PR 3.
	Replication *replica.Policy
	// Reads lists read-only methods for router-side request coalescing
	// (and, with Replication, replica routing).  When Replication is
	// set, its Reads are used and this field must be empty or equal.
	Reads []string
	// InitMethod, when set, is invoked synchronously on every shard
	// right after creation (before replication), with InitArgs.
	InitArgs   []any
	InitMethod string
}

// Handoff protocol methods the shard class must implement for
// rebalance: Keys() []string, Extract(keys []string) T, Install(data T)
// for any wire-registered T.
const (
	keysMethod    = "Keys"
	extractMethod = "Extract"
	installMethod = "Install"
)

// withDefaults fills unset fields.
func (s ShardSpec) withDefaults() ShardSpec {
	if s.Replication != nil && len(s.Reads) == 0 {
		s.Reads = s.Replication.Reads
	}
	return s
}

// validate rejects unusable specs (after withDefaults).
func (s ShardSpec) validate() error {
	if s.Shards < 1 {
		return fmt.Errorf("core: shard group needs Shards >= 1, got %d", s.Shards)
	}
	if s.Replication != nil {
		if err := s.Replication.WithDefaults().Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ShardGroup partitions a key space over shard objects.
type ShardGroup struct {
	app   *App
	name  string
	class string
	spec  ShardSpec

	mu         sync.Mutex
	ring       *shard.Ring
	shards     map[string]*Object // shard name -> object handle
	seq        int                // next shard index (names survive removals)
	reads      []string
	flights    map[string]*flight      // in-flight coalescible reads
	heat       map[string]*heat.Sketch // shard name -> per-key heat sketch
	heatSeries map[string]bool         // js_shard_key_heat series the last PublishHeat left alive
	adm        *admission              // nil until SetAdmission
	durable    bool                    // every shard is WAL-backed (Persist)
	durReads   []string                // durable-read exclusions for new shards

	// Handles of the per-group families, resolved in newShardGroup.
	invokes, coalesced, rebalances, keysMoved, evacuations *metrics.Counter
	shardCount                                             *metrics.Gauge
}

// flight is one in-flight coalescible read: the leader performs the
// call, followers park on per-follower queues and receive the shared
// result.
type flight struct {
	waiters []sched.Queue
}

type flightResult struct {
	res any
	err error
}

// NewShardGroup creates a shard group of the given class: spec.Shards
// shard objects named "<name>#<i>", spread across distinct nodes (wrapping
// when the installation is smaller), initialized via spec.InitMethod and
// replicated per spec.Replication.  Shard names — not node names — are
// the ring members, so placement can change (migration, promotion)
// without moving any key.
func (a *App) NewShardGroup(p sched.Proc, name, class string, spec ShardSpec) (*ShardGroup, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if name == "" {
		return nil, errors.New("core: shard group needs a name")
	}
	// Spread the shard primaries over distinct nodes: write throughput
	// scales with the number of executing hosts, not the shard count.
	eff := a.world.DefaultConstraints()
	homes, err := nas.SelectNodes(p, a.rt.st, a.world.dirNode, nas.SelectOpts{
		N: spec.Shards, Constr: eff, Spread: true, Reserve: false,
	})
	if err != nil || len(homes) == 0 {
		// Fewer nodes than shards (or a picky constraint): place one by
		// one and wrap.
		homes, err = nas.SelectNodes(p, a.rt.st, a.world.dirNode, nas.SelectOpts{
			N: 1, Constr: eff, Reserve: false,
		})
		if err != nil || len(homes) == 0 {
			return nil, fmt.Errorf("core: no nodes for shard group %s: %w", name, err)
		}
	}
	g := newShardGroup(a, name, class, spec)
	members := make([]string, spec.Shards)
	for i := range members {
		members[i] = fmt.Sprintf("%s#%d", name, i)
	}
	return g.assemble(p, members, func(i int) (*Object, error) {
		return g.makeShard(p, homes[i%len(homes)])
	}, fmt.Sprintf("of %s over %d nodes", class, len(homes)))
}

// newShardGroup returns an empty, unregistered group; spec has its
// defaults filled.
func newShardGroup(a *App, name, class string, spec ShardSpec) *ShardGroup {
	return &ShardGroup{
		app: a, name: name, class: class, spec: spec,
		ring:    shard.New(shard.DefaultVnodes),
		shards:  make(map[string]*Object),
		reads:   readList(spec.Reads),
		flights: make(map[string]*flight),
		heat:    make(map[string]*heat.Sketch),

		invokes:     a.world.reg.CounterHandle(metrics.Label("js_shard_invokes_total", "group", name)),
		coalesced:   a.world.reg.CounterHandle(metrics.Label("js_shard_coalesced_total", "group", name)),
		rebalances:  a.world.reg.CounterHandle(metrics.Label("js_shard_rebalances_total", "group", name)),
		keysMoved:   a.world.reg.CounterHandle(metrics.Label("js_shard_keys_moved_total", "group", name)),
		evacuations: a.world.reg.CounterHandle(metrics.Label("js_shard_evacuations_total", "group", name)),
		shardCount:  a.world.reg.GaugeHandle(metrics.Label("js_shard_shards", "group", name)),
	}
}

// assemble is how every shard group comes to exist, new or restored
// from the WAL: it puts the named members on the ring — member names,
// not placements, own the keys, so a restore under the logged names
// reproduces key ownership exactly — with the object member(i) yields
// for members[i], then registers the group and reports it as "<name>:
// <n> shards <how>".  A nil object skips the member (the caller
// accounts for it).  An error fails the whole group and frees the
// members already made, since no group will own them.
func (g *ShardGroup) assemble(p sched.Proc, members []string, member func(i int) (*Object, error), how string) (*ShardGroup, error) {
	a := g.app
	a.mu.Lock()
	_, dup := a.shardGroups[g.name]
	a.mu.Unlock()
	if dup {
		return nil, fmt.Errorf("core: shard group %q already exists", g.name)
	}
	for i, sname := range members {
		obj, err := member(i)
		if err != nil {
			// Best effort, like any free: a dead host has nothing left to drop.
			for _, done := range g.ring.Members() {
				_ = g.shards[done].Free(p)
			}
			return nil, fmt.Errorf("core: shard %s: %w", sname, err)
		}
		if obj == nil {
			continue
		}
		g.attach(sname, obj)
		// Future Grow calls must not reuse a member's name.
		if idx := shardIndex(g.name, sname); idx >= g.seq {
			g.seq = idx + 1
		}
	}
	if len(g.shards) == 0 {
		return nil, fmt.Errorf("core: shard group %s has no members", g.name)
	}
	a.mu.Lock()
	a.shardGroups[g.name] = g
	a.mu.Unlock()
	g.shardCount.Set(float64(len(g.shards)))
	a.world.emit(trace.Event{Kind: trace.ShardGroupCreated, Node: a.Home(), App: a.id,
		Detail: fmt.Sprintf("%s: %d shards %s", g.name, len(g.shards), how)})
	return g, nil
}

// attach puts one member on the ring.
func (g *ShardGroup) attach(sname string, obj *Object) {
	g.mu.Lock()
	g.shards[sname] = obj
	g.ring.Add(sname)
	g.heat[sname] = heat.New(heat.DefaultCapacity)
	g.mu.Unlock()
}

// makeShard creates, initializes, and replicates one shard object pinned
// to node ("" lets JRS pick).
func (g *ShardGroup) makeShard(p sched.Proc, node string) (*Object, error) {
	a := g.app
	var comp virtarch.Component
	if node != "" {
		vn, err := virtarch.NewNamedNode(a.Allocator(p), node)
		if err != nil {
			return nil, err
		}
		comp = vn
	}
	obj, err := a.NewObject(p, g.class, comp, nil)
	if err != nil {
		return nil, err
	}
	if g.spec.InitMethod != "" {
		if _, err := obj.SInvoke(p, g.spec.InitMethod, g.spec.InitArgs...); err != nil {
			_ = obj.Free(p)
			return nil, fmt.Errorf("core: init shard of %s: %w", g.name, err)
		}
	}
	if g.spec.Replication != nil {
		if err := obj.Replicate(p, *g.spec.Replication); err != nil {
			_ = obj.Free(p)
			return nil, fmt.Errorf("core: replicate shard of %s: %w", g.name, err)
		}
	}
	return obj, nil
}

// addShard grows the group by one shard on node under the next free
// member name.  Caller must not hold g.mu.
func (g *ShardGroup) addShard(p sched.Proc, node string) (string, error) {
	obj, err := g.makeShard(p, node)
	if err != nil {
		return "", err
	}
	g.mu.Lock()
	sname := fmt.Sprintf("%s#%d", g.name, g.seq)
	g.seq++
	durable := g.durable
	durReads := g.durReads
	g.mu.Unlock()
	g.attach(sname, obj)
	if durable {
		// A shard grown into a persisted group inherits its durability, so
		// the whole key space stays crash-consistent.
		if err := g.app.persistDurable(p, obj.id, durReads); err != nil {
			return sname, fmt.Errorf("core: persist grown shard of %s: %w", g.name, err)
		}
		g.app.writeDurManifest(p)
	}
	return sname, nil
}

// Shards returns the shard names in ring (sorted) order.
func (g *ShardGroup) Shards() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ring.Members()
}

// Owner returns the shard name owning key.
func (g *ShardGroup) Owner(key string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ring.Owner(key)
}

// Object returns the object handle of a shard member.
func (g *ShardGroup) Object(shardName string) (*Object, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	o, ok := g.shards[shardName]
	return o, ok
}

// Invoke routes one keyed invocation to the shard owning key.  Methods
// declared in spec.Reads additionally coalesce: concurrent identical
// reads (same shard, method, and arguments) collapse onto one in-flight
// RMI whose result is shared — N simultaneous readers of a hot key cost
// one call (singleflight).  Requests enroll in SLO accounting under the
// implicit "read"/"write" classes; use InvokeClass to declare a client
// class instead.
func (g *ShardGroup) Invoke(p sched.Proc, key, method string, args ...any) (any, error) {
	return g.InvokeClass(p, "", key, method, args...)
}

// InvokeClass is Invoke with a caller-declared request class: the span
// (and the coalesced-follower accounting) enrolls in the SLO engine
// under class instead of the implicit "read"/"write", and the request
// passes through the group's admission controller — a class the
// controller is currently shedding is refused immediately with a typed
// rmi.ErrOverload before any routing happens.  An empty class falls
// back to Invoke's behaviour.
func (g *ShardGroup) InvokeClass(p sched.Proc, class, key, method string, args ...any) (any, error) {
	g.mu.Lock()
	owner := g.ring.Owner(key)
	obj := g.shards[owner]
	isRead := slices.Contains(g.reads, method)
	if sk := g.heat[owner]; sk != nil {
		sk.Touch(key)
	}
	g.mu.Unlock()
	if obj == nil {
		return nil, fmt.Errorf("core: shard group %s has no shards", g.name)
	}
	if class == "" {
		if isRead {
			class = ClassRead
		} else {
			class = ClassWrite
		}
	}
	if err := g.admit(class, method); err != nil {
		return nil, err
	}
	g.invokes.Inc()
	if !isRead {
		return g.app.invokeObject(p, obj.id, method, args, trace.SpanSync, owner, class)
	}
	return g.coalesce(p, owner, obj, method, args, class)
}

// AInvokeClass is the asynchronous InvokeClass (§4.5).
func (g *ShardGroup) AInvokeClass(class, key, method string, args ...any) *Handle {
	return ainvoke(g.app.world.s, func(p sched.Proc) (any, error) {
		return g.InvokeClass(p, class, key, method, args...)
	})
}

// coalesce is the singleflight read path: the first caller for a
// (shard, method, args) tuple becomes the leader and performs the
// invocation; callers arriving while it is in flight park on queues and
// receive the leader's result without issuing an RMI of their own.
func (g *ShardGroup) coalesce(p sched.Proc, owner string, obj *Object, method string, args []any, class string) (any, error) {
	// Key on the arguments' canonical encoding: a printed form would
	// merge calls whose arguments print alike ("a b","c" and "a","b c";
	// 1 and "1").
	fkey := owner + "\x00" + method + "\x00" + string(rmi.AppendArgs(nil, args))
	g.mu.Lock()
	if f, ok := g.flights[fkey]; ok {
		q := g.app.world.s.NewQueue("shard-coalesce")
		f.waiters = append(f.waiters, q)
		g.mu.Unlock()
		g.coalesced.Inc()
		// A follower is still one finished request: it spends real time
		// parked on the leader, so it feeds its own class's SLO
		// accounting even though no span of its own crosses the wire.
		watch := sched.StartWatch(g.app.world.s)
		v, ok := p.Recv(q)
		if !ok {
			return nil, errors.New("core: shard group shut down mid-flight")
		}
		r := v.(flightResult)
		g.app.world.slo.Record(class, watch.Elapsed(), r.err != nil)
		return r.res, r.err
	}
	f := &flight{}
	g.flights[fkey] = f
	g.mu.Unlock()
	res, err := g.app.invokeObject(p, obj.id, method, args, trace.SpanSync, owner, class)
	g.mu.Lock()
	delete(g.flights, fkey)
	waiters := f.waiters
	f.waiters = nil
	g.mu.Unlock()
	for _, q := range waiters {
		q.Put(flightResult{res: res, err: err}, 0)
	}
	return res, err
}

// Grow adds one shard on node ("" lets JRS pick) and rebalances:
// consistent hashing guarantees only the ~K/(S+1) keys now owned by the
// new shard move, and they are handed off shard-by-shard through the
// class's Extract/Install protocol.  The new ring is published to the
// router only after all handoffs complete, so reads keep resolving to
// the old (still-populated) owners during the transfer; Grow is not
// linearizable with concurrent writes to the moving keys — rebalance
// during a write lull, like any resharding system.  Returns the new
// shard's name.
func (g *ShardGroup) Grow(p sched.Proc, node string) (string, error) {
	// Create the shard but keep it off the live ring until handoff is
	// done: addShard puts it on g.ring, so work on a pre-grow clone.
	g.mu.Lock()
	before := g.ring.Clone()
	g.mu.Unlock()
	sname, err := g.addShard(p, node)
	if err != nil {
		return "", err
	}
	g.mu.Lock()
	after := g.ring.Clone()
	g.ring = before // router keeps old ownership during handoff
	newObj := g.shards[sname]
	olds := before.Members()
	g.mu.Unlock()

	moved := 0
	watch := sched.StartWatch(g.app.world.s)
	for _, old := range olds {
		g.mu.Lock()
		src := g.shards[old]
		g.mu.Unlock()
		if src == nil {
			continue
		}
		keysAny, err := g.app.invokeObject(p, src.id, keysMethod, nil, trace.SpanSync, old, "")
		if err != nil {
			return sname, fmt.Errorf("core: handoff keys from %s: %w", old, err)
		}
		keys, _ := keysAny.([]string)
		var leaving []string
		for _, k := range keys {
			if after.Owner(k) == sname {
				leaving = append(leaving, k)
			}
		}
		if len(leaving) == 0 {
			continue
		}
		data, err := g.app.invokeObject(p, src.id, extractMethod, []any{leaving}, trace.SpanSync, old, "")
		if err != nil {
			return sname, fmt.Errorf("core: handoff extract from %s: %w", old, err)
		}
		if _, err := g.app.invokeObject(p, newObj.id, installMethod, []any{data}, trace.SpanSync, sname, ""); err != nil {
			return sname, fmt.Errorf("core: handoff install into %s: %w", sname, err)
		}
		moved += len(leaving)
	}
	g.mu.Lock()
	g.ring = after
	shards := len(g.shards)
	g.mu.Unlock()
	g.rebalances.Inc()
	g.keysMoved.Add(int64(moved))
	g.app.world.rebalanceUs.ObserveDuration(watch.Elapsed())
	g.shardCount.Set(float64(shards))
	loc, _ := newObj.NodeName()
	g.app.world.emit(trace.Event{Kind: trace.ShardRebalanced, Node: loc, App: g.app.id,
		Detail: fmt.Sprintf("%s: +%s, %d keys handed off", g.name, sname, moved)})
	return sname, nil
}

// Evacuate migrates every shard primary hosted on node somewhere else,
// reusing the standard object-migration protocol (Fig. 3) — with
// replica anti-affinity, the refuge never lands on a set member.  The
// ring is untouched: shard identity owns the keys, so relocating a
// shard moves zero keys.
func (g *ShardGroup) Evacuate(p sched.Proc, node string) error {
	g.mu.Lock()
	names := g.ring.Members()
	objs := make(map[string]*Object, len(names))
	for _, n := range names {
		objs[n] = g.shards[n]
	}
	g.mu.Unlock()
	movedShards := 0
	var firstErr error
	for _, sname := range names {
		obj := objs[sname]
		loc, err := obj.NodeName()
		if err != nil || loc != node {
			continue
		}
		if err := obj.Migrate(p, nil, nil); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: evacuate shard %s off %s: %w", sname, node, err)
			}
			continue
		}
		movedShards++
	}
	if movedShards > 0 {
		g.evacuations.Inc()
		g.app.world.emit(trace.Event{Kind: trace.ShardEvacuated, Node: node, App: g.app.id,
			Detail: fmt.Sprintf("%s: %d shards migrated off", g.name, movedShards)})
	}
	return firstErr
}

// ShardHeat is one shard's hot-key table.
type ShardHeat struct {
	Shard string       `json:"shard"`
	Keys  []heat.Entry `json:"keys"`
}

// Heat returns each shard's k hottest keys (k <= 0 returns all tracked
// keys), shards in ring order, keys by (count desc, key asc) — the
// deterministic order the sketch guarantees.
func (g *ShardGroup) Heat(k int) []ShardHeat {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ShardHeat, 0, len(g.heat))
	for _, sname := range g.ring.Members() {
		sk := g.heat[sname]
		if sk == nil {
			continue
		}
		out = append(out, ShardHeat{Shard: sname, Keys: sk.TopK(k)})
	}
	return out
}

// PublishHeat exports each shard's k hottest keys as
// js_shard_key_heat{group,shard,key} gauges, and retires the series of
// keys the previous call exported that have since left the top-k — at
// most k series per shard stay alive however the heat shifts.  Counts
// are upper bounds (space-saving semantics); hostile key bytes survive
// the label round-trip because labels are Go-quoted in the registry.
func (g *ShardGroup) PublishHeat(k int) {
	reg := g.app.world.reg
	live := make(map[string]bool)
	for _, sh := range g.Heat(k) {
		for _, e := range sh.Keys {
			name := metrics.Label("js_shard_key_heat", "group", g.name, "shard", sh.Shard, "key", e.Key)
			reg.Gauge(name).Set(float64(e.Count))
			live[name] = true
		}
	}
	g.mu.Lock()
	stale := g.heatSeries
	g.heatSeries = live
	g.mu.Unlock()
	for name := range stale {
		if !live[name] {
			reg.DropGauge(name)
		}
	}
}

// ShardInfo describes one shard member for inspection.
type ShardInfo struct {
	Shard    string   // ring member name
	Ref      Ref      //
	Node     string   // current primary location
	Replicas []string // replica-set members (empty when unreplicated)
}

// ShardGroupInfo describes a group for the shell and tests.
type ShardGroupInfo struct {
	Name      string
	Shards    []ShardInfo
	Admission *AdmissionState // nil when the group has no admission policy
}

// Info snapshots the group.
func (g *ShardGroup) Info() ShardGroupInfo {
	g.mu.Lock()
	names := g.ring.Members()
	objs := make([]*Object, len(names))
	for i, n := range names {
		objs[i] = g.shards[n]
	}
	g.mu.Unlock()
	info := ShardGroupInfo{Name: g.name}
	if st, ok := g.Admission(); ok {
		info.Admission = &st
	}
	for i, n := range names {
		si := ShardInfo{Shard: n}
		if o := objs[i]; o != nil {
			si.Ref, _ = o.Ref()
			si.Node, _ = o.NodeName()
			if e, err := o.app.entry(o.id); err == nil {
				o.app.mu.Lock()
				si.Replicas = e.replicas
				o.app.mu.Unlock()
			}
		}
		info.Shards = append(info.Shards, si)
	}
	return info
}

// ShardGroups lists the application's shard groups sorted by name.
func (a *App) ShardGroups() []ShardGroupInfo {
	a.mu.Lock()
	names := make([]string, 0, len(a.shardGroups))
	for n := range a.shardGroups {
		names = append(names, n)
	}
	groups := make([]*ShardGroup, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		groups = append(groups, a.shardGroups[n])
	}
	a.mu.Unlock()
	out := make([]ShardGroupInfo, 0, len(groups))
	for _, g := range groups {
		out = append(out, g.Info())
	}
	return out
}

// ShardGroup returns a group by name.
func (a *App) ShardGroup(name string) (*ShardGroup, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	g, ok := a.shardGroups[name]
	return g, ok
}
