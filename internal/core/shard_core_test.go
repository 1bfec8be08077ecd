package core

// Shard-group tests: key routing and partition disjointness, rebalance
// moving only the new shard's fair share, singleflight read coalescing,
// the batched authority renewer, MinSync write durability, replica
// anti-affinity in migration placement, and post-heal zombie teardown.

import (
	"fmt"
	"testing"
	"time"

	"jsymphony/internal/chaos"
	"jsymphony/internal/metrics"
	"jsymphony/internal/replica"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
	"strings"
)

// loadTable ships the Table class everywhere (simWorld only loads
// Counter).
func loadTable(t *testing.T, a *App, p sched.Proc) {
	t.Helper()
	cb := a.NewCodebase()
	if err := cb.Add("Table"); err != nil {
		t.Fatal(err)
	}
	if err := cb.LoadNodes(p, a.world.Nodes()...); err != nil {
		t.Fatal(err)
	}
}

func tkey(i int) string { return fmt.Sprintf("k%03d", i) }

// shardContents reads every shard's resident key set straight out of
// the hosting runtimes.
func shardContents(t *testing.T, w *World, g *ShardGroup) map[string]map[string]int {
	t.Helper()
	out := make(map[string]map[string]int)
	for _, si := range g.Info().Shards {
		inst, ok := w.MustRuntime(si.Node).Instance(si.Ref)
		if !ok {
			t.Fatalf("shard %s has no instance on %s", si.Shard, si.Node)
		}
		data := make(map[string]int)
		for k, v := range inst.(*Table).Data {
			data[k] = v
		}
		out[si.Shard] = data
	}
	return out
}

// assertPartition checks that the shards hold pairwise-disjoint key
// sets, that their union is exactly keys, and that every key lives on
// the shard the ring says owns it.
func assertPartition(t *testing.T, g *ShardGroup, contents map[string]map[string]int, keys int) {
	t.Helper()
	seen := make(map[string]string)
	for sname, data := range contents {
		for k := range data {
			if prev, dup := seen[k]; dup {
				t.Fatalf("key %s on two shards: %s and %s", k, prev, sname)
			}
			seen[k] = sname
		}
	}
	if len(seen) != keys {
		t.Fatalf("union holds %d keys, want %d", len(seen), keys)
	}
	for k, sname := range seen {
		if owner := g.Owner(k); owner != sname {
			t.Fatalf("key %s lives on %s but the ring owns it to %s", k, sname, owner)
		}
	}
}

func TestShardGroupRoutesAndPartitions(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		loadTable(t, a, p)
		g, err := a.NewShardGroup(p, "tbl", "Table", ShardSpec{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		const keys = 60
		for i := 0; i < keys; i++ {
			if _, err := g.Invoke(p, tkey(i), "Put", tkey(i), i); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		for i := 0; i < keys; i++ {
			got, err := g.Invoke(p, tkey(i), "Get", tkey(i))
			if err != nil || got.(int) != i {
				t.Fatalf("get %s = %v, %v (want %d)", tkey(i), got, err, i)
			}
		}
		contents := shardContents(t, w, g)
		assertPartition(t, g, contents, keys)
		// Every shard carries a non-trivial slice: the finalized hash
		// spreads even short sequential keys.
		for sname, data := range contents {
			if len(data) == 0 {
				t.Fatalf("shard %s owns no keys", sname)
			}
		}
		if n := w.Metrics().Counter(metrics.Label("js_shard_invokes_total", "group", "tbl")).Value(); n < 2*keys {
			t.Fatalf("invoke counter = %d, want >= %d", n, 2*keys)
		}
		if len(w.Trace().Filter(trace.ShardGroupCreated)) == 0 {
			t.Fatal("no shard.created event traced")
		}
		// Groups are listed, and duplicate names are rejected.
		if infos := a.ShardGroups(); len(infos) != 1 || infos[0].Name != "tbl" || len(infos[0].Shards) != 3 {
			t.Fatalf("ShardGroups = %+v", infos)
		}
		if _, err := a.NewShardGroup(p, "tbl", "Table", ShardSpec{Shards: 1}); err == nil {
			t.Fatal("duplicate group name accepted")
		}
	})
}

// TestPublishHeatRetiresCooledKeys: across publishes over a shifting key
// distribution the exported js_shard_key_heat series stay at the current
// top-k — a key that cooled off must not keep exporting its old count.
func TestPublishHeatRetiresCooledKeys(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		loadTable(t, a, p)
		g, err := a.NewShardGroup(p, "tbl", "Table", ShardSpec{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		touch := func(key string, n int) {
			for i := 0; i < n; i++ {
				if _, err := g.Invoke(p, key, "Put", key, i); err != nil {
					t.Fatalf("put %s: %v", key, err)
				}
			}
		}
		series := func() []string {
			var names []string
			for _, gs := range w.Metrics().Snapshot().Gauges {
				if strings.HasPrefix(gs.Name, "js_shard_key_heat{") {
					names = append(names, gs.Name)
				}
			}
			return names
		}
		name := func(key string) string {
			return metrics.Label("js_shard_key_heat", "group", "tbl", "shard", "tbl#0", "key", key)
		}
		touch("a", 5)
		touch("b", 4)
		g.PublishHeat(2)
		if got := series(); len(got) != 2 || got[0] != name("a") || got[1] != name("b") {
			t.Fatalf("first publish exported %v", got)
		}
		// The heat shifts: c and d overtake b.
		touch("c", 9)
		touch("d", 8)
		g.PublishHeat(2)
		if got := series(); len(got) != 2 || got[0] != name("c") || got[1] != name("d") {
			t.Fatalf("second publish left %v alive, want only c and d", got)
		}
	})
}

func TestShardGroupGrowMovesOnlyFairShare(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		loadTable(t, a, p)
		g, err := a.NewShardGroup(p, "tbl", "Table", ShardSpec{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		const keys = 90
		before := make(map[string]string, keys)
		for i := 0; i < keys; i++ {
			if _, err := g.Invoke(p, tkey(i), "Put", tkey(i), i); err != nil {
				t.Fatal(err)
			}
			before[tkey(i)] = g.Owner(tkey(i))
		}
		sname, err := g.Grow(p, "")
		if err != nil {
			t.Fatalf("grow: %v", err)
		}
		moved := 0
		for i := 0; i < keys; i++ {
			after := g.Owner(tkey(i))
			if after != before[tkey(i)] {
				// Consistent hashing: a reassigned key may only move TO
				// the new shard, never between old members.
				if after != sname {
					t.Fatalf("key %s moved %s -> %s, not to the new shard %s",
						tkey(i), before[tkey(i)], after, sname)
				}
				moved++
			}
		}
		// The new shard takes ~K/(S+1) = ~22 of 90 keys; far outside
		// that band means the ring is mis-spreading.
		if moved < keys/18 || moved > keys/2 {
			t.Fatalf("grow moved %d of %d keys, want roughly %d", moved, keys, keys/4)
		}
		if got := w.Metrics().Counter(metrics.Label("js_shard_keys_moved_total", "group", "tbl")).Value(); got != int64(moved) {
			t.Fatalf("keys-moved counter = %d, ring moved %d", got, moved)
		}
		// Handoff preserved every binding, exactly once, on the right
		// shard.
		for i := 0; i < keys; i++ {
			got, err := g.Invoke(p, tkey(i), "Get", tkey(i))
			if err != nil || got.(int) != i {
				t.Fatalf("post-grow get %s = %v, %v (want %d)", tkey(i), got, err, i)
			}
		}
		assertPartition(t, g, shardContents(t, w, g), keys)
		if len(w.Trace().Filter(trace.ShardRebalanced)) == 0 {
			t.Fatal("no shard.rebalanced event traced")
		}
	})
}

func TestShardCoalescingSingleflight(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		loadTable(t, a, p)
		g, err := a.NewShardGroup(p, "tbl", "Table", ShardSpec{
			Shards: 2, Reads: []string{"Get", "SlowGet", "SlowJoin"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Invoke(p, "hot", "Put", "hot", 7); err != nil {
			t.Fatal(err)
		}
		const readers = 6
		done := w.Sched().NewQueue("coalesce-test")
		for i := 0; i < readers; i++ {
			w.Sched().Spawn(fmt.Sprintf("reader%d", i), func(p sched.Proc) {
				got, err := g.Invoke(p, "hot", "SlowGet", "hot")
				if err != nil {
					done.Put(err, 0)
					return
				}
				done.Put(got, 0)
			})
		}
		for i := 0; i < readers; i++ {
			v, ok := p.Recv(done)
			if !ok {
				t.Fatal("queue closed")
			}
			if got, isInt := v.(int); !isInt || got != 7 {
				t.Fatalf("coalesced read %d = %v, want 7", i, v)
			}
		}
		coalesced := w.Metrics().Counter(metrics.Label("js_shard_coalesced_total", "group", "tbl")).Value()
		if coalesced == 0 {
			t.Fatal("no read joined an in-flight call")
		}
		if coalesced > readers-1 {
			t.Fatalf("coalesced = %d, more than the %d possible followers", coalesced, readers-1)
		}
		// Concurrent reads whose arguments print alike are different
		// calls: each reader gets its own result.
		pairs := [][2]string{{"a b", "c"}, {"a", "b c"}}
		joined := w.Sched().NewQueue("coalesce-pairs")
		for _, pr := range pairs {
			pr := pr
			w.Sched().Spawn("join-reader", func(p sched.Proc) {
				got, err := g.Invoke(p, "hot", "SlowJoin", pr[0], pr[1])
				if err != nil {
					got = err.Error()
				}
				joined.Put([2]any{pr, got}, 0)
			})
		}
		for range pairs {
			v, _ := p.Recv(joined)
			r := v.([2]any)
			pr := r[0].([2]string)
			if want := pr[0] + "|" + pr[1]; r[1] != want {
				t.Fatalf("SlowJoin%q = %v, want %q", pr, r[1], want)
			}
		}
	})
}

func TestBatchedRenewerReducesControlRMIs(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		const objects = 6
		for i := 0; i < objects; i++ {
			replicatedCounter(t, a, p, w.Nodes()[1], readPolicy(1, replica.Eventual))
		}
		p.Sleep(1100 * time.Millisecond) // several renewer periods
		grants := w.Metrics().Counter("js_replica_auth_grants_total").Value()
		batches := w.Metrics().Counter("js_replica_auth_batches_total").Value()
		if batches == 0 {
			t.Fatal("renewer never sent a batch")
		}
		// All primaries share one node, so each tick folds every grant
		// into one RMI: the old per-object walk would have cost `grants`
		// calls, the batched one costs `batches`.
		if ratio := float64(grants) / float64(batches); ratio < 4 {
			t.Fatalf("grants/batches = %d/%d = %.1f, want >= 4", grants, batches, ratio)
		}
		if misses := w.Metrics().Counter("js_replica_auth_batch_misses_total").Value(); misses != 0 {
			t.Fatalf("%d batched grants missed their object", misses)
		}
	})
}

func TestMinSyncEventualWrite(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		pol := replica.Policy{N: 2, Mode: replica.Eventual, MinSync: 1,
			Reads: []string{"Get", "Where"}}
		obj := replicatedCounter(t, a, p, w.Nodes()[1], pol)
		lazy := replicatedCounter(t, a, p, w.Nodes()[2], readPolicy(2, replica.Eventual))

		synced := func(o *Object, want int) int {
			ref, _ := o.Ref()
			n := 0
			for _, info := range a.ReplicaSets() {
				if info.Ref != ref {
					continue
				}
				for _, node := range info.Set.Replicas {
					if inst, ok := w.MustRuntime(node).Instance(ref); ok && inst.(*Counter).N == want {
						n++
					}
				}
			}
			return n
		}

		// MinSync=1 guarantees that by the time the ack returns, at
		// least one replica has already applied the write: the sync
		// Call's response reaches the primary before the primary acks.
		// (Plain eventual makes no such promise — its Posts usually
		// land around the same time the ack travels back, but nothing
		// holds the ack for them.)
		if got, err := obj.SInvoke(p, "Add", 1); err != nil || got.(int) != 42 {
			t.Fatalf("minsync write = %v, %v", got, err)
		}
		if n := synced(obj, 42); n < 1 {
			t.Fatalf("MinSync=1 acked with %d replicas updated, want >= 1", n)
		}
		// MinSync=0 still converges once the posts land.
		if got, err := lazy.SInvoke(p, "Add", 1); err != nil || got.(int) != 42 {
			t.Fatalf("eventual write = %v, %v", got, err)
		}
		p.Sleep(300 * time.Millisecond)
		if n := synced(lazy, 42); n != 2 {
			t.Fatalf("eventual set converged to %d of 2 replicas", n)
		}
		// Validation: MinSync cannot exceed the set size.
		bad := replica.Policy{N: 1, Mode: replica.Eventual, MinSync: 2, Reads: []string{"Get"}}
		extra, err := a.NewObject(p, "Counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := extra.Replicate(p, bad); err == nil {
			t.Fatal("MinSync > N accepted")
		}
	})
}

// TestMinSyncAckedWriteSurvivesPrimaryCrash is the point of the knob:
// under eventual mode with MinSync=1, an acknowledged write is already
// on a replica when the ack returns, so crashing the primary the very
// instant the write is acked cannot lose it — the k-durable middle
// ground between eventual (ack may die with the primary) and strong.
func TestMinSyncAckedWriteSurvivesPrimaryCrash(t *testing.T) {
	replicaChaosWorld(t, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
		victim := w.Nodes()[1]
		pol := replica.Policy{N: 2, Mode: replica.Eventual, MinSync: 1,
			Reads: []string{"Get", "Where"}}
		obj := replicatedCounter(t, a, p, victim, pol)
		if got, err := obj.SInvoke(p, "Add", 1); err != nil || got.(int) != 42 {
			t.Fatalf("write = %v, %v", got, err)
		}
		// Crash at the ack instant: zero virtual time for stragglers.
		if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
			t.Fatalf("inject crash: %v", err)
		}
		awaitRelocation(t, w, p, obj, victim)
		if got, err := obj.SInvoke(p, "Get"); err != nil || got.(int) != 42 {
			t.Fatalf("read after promotion = %v, %v (want 42: MinSync write lost)", got, err)
		}
	})
}

// TestMigrateAvoidsReplicaNodes pins the whole anti-affinity decision:
// on a 3-node world with the primary on node01 and its only replica on
// another node, an auto-selected migration must land on the one node
// that hosts neither.
func TestMigrateAvoidsReplicaNodes(t *testing.T) {
	w := NewSimWorld(simnet.UniformCluster(simnet.Ultra10_300, 3), simnet.Idle, 1, Options{
		NAS:      testNAS(),
		Registry: testRegistry(),
	})
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, err := w.Register(w.Nodes()[0])
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		defer a.Unregister(p)
		cb := a.NewCodebase()
		if err := cb.Add("Counter"); err != nil {
			t.Fatal(err)
		}
		if err := cb.LoadNodes(p, w.Nodes()...); err != nil {
			t.Fatal(err)
		}
		vn, err := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[1])
		if err != nil {
			t.Fatal(err)
		}
		obj, err := a.NewObject(p, "Counter", vn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Replicate(p, readPolicy(1, replica.Strong)); err != nil {
			t.Fatal(err)
		}
		sets := a.ReplicaSets()
		if len(sets) != 1 || len(sets[0].Set.Replicas) != 1 {
			t.Fatalf("replica sets = %+v", sets)
		}
		member := sets[0].Set.Replicas[0]
		want := ""
		for _, n := range w.Nodes() {
			if n != w.Nodes()[1] && n != member {
				want = n
			}
		}
		if err := obj.Migrate(p, nil, nil); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		loc, err := obj.NodeName()
		if err != nil {
			t.Fatal(err)
		}
		if loc == member {
			t.Fatalf("migration landed on replica member %s", member)
		}
		if loc != want {
			t.Fatalf("migration landed on %s, want the replica-free node %s", loc, want)
		}
	})
}

// TestZombieCleanupAfterHeal partitions a replicated primary away from
// the directory node: the AppOA fences and promotes past it, and the
// cut-off copy keeps serving on its island.  When the partition heals,
// the recovery event must trigger teardown of the stale lineage.
func TestZombieCleanupAfterHeal(t *testing.T) {
	replicaChaosWorld(t, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
		dir := w.Nodes()[0]
		victim := w.Nodes()[1]
		obj := replicatedCounter(t, a, p, victim, readPolicy(2, replica.Strong))
		ref, _ := obj.Ref()
		if err := inj.Inject(chaos.Fault{Kind: chaos.Partition, A: victim, B: dir}); err != nil {
			t.Fatalf("inject partition: %v", err)
		}
		newLoc := awaitRelocation(t, w, p, obj, victim)
		// The fenced primary is a zombie: unreachable from the AppOA but
		// still hosting the object on its side of the cut.
		if _, ok := w.MustRuntime(victim).Instance(ref); !ok {
			t.Fatalf("partitioned primary %s no longer hosts the object — not a zombie scenario", victim)
		}
		if err := inj.Inject(chaos.Fault{Kind: chaos.Heal, A: victim, B: dir}); err != nil {
			t.Fatalf("heal: %v", err)
		}
		deadline := w.Sched().Now() + 10*time.Second
		for {
			p.Sleep(200 * time.Millisecond)
			if _, ok := w.MustRuntime(victim).Instance(ref); !ok {
				break
			}
			if w.Sched().Now() > deadline {
				t.Fatalf("zombie on %s never torn down after heal", victim)
			}
		}
		if n := w.Metrics().Counter("js_replica_zombie_teardowns_total").Value(); n < 1 {
			t.Fatalf("teardown counter = %d, want >= 1", n)
		}
		found := false
		for _, e := range w.Trace().Filter(trace.ReplicaDropped) {
			if e.Node == victim && strings.Contains(e.Detail, "zombie") {
				found = true
			}
		}
		if !found {
			t.Fatal("no zombie-teardown replica.dropped event traced")
		}
		// The promoted lineage still works.
		if got, err := obj.SInvoke(p, "Add", 1); err != nil || got.(int) != 42 {
			t.Fatalf("post-heal write = %v, %v (primary now %s)", got, err, newLoc)
		}
	})
}
