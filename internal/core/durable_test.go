package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"jsymphony/internal/chaos"
	"jsymphony/internal/metrics"
	"jsymphony/internal/replica"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/virtarch"
	"jsymphony/internal/wal"
)

// durWorld builds a durability-enabled sim world with fast NAS periods,
// a retry policy, and an armed chaos injector.  The app is NOT
// unregistered when fn returns: durable objects are supposed to outlive
// the installation, and unregistering would tombstone them.
func durWorld(t *testing.T, d DurabilityOptions, seed int64, fn func(w *World, a *App, inj *chaos.Injector, p sched.Proc)) {
	t.Helper()
	durWorldOn(t, simnet.PaperCluster(), d, seed, fn)
}

// durWorldOn is durWorld over a custom machine inventory (e.g. slow
// disks, to widen the flush-to-sync window a crash can land in).
func durWorldOn(t *testing.T, machines []simnet.MachineSpec, d DurabilityOptions, seed int64, fn func(w *World, a *App, inj *chaos.Injector, p sched.Proc)) {
	t.Helper()
	if d.Stable == nil {
		d.Stable = wal.NewStable(seed)
	}
	w := NewSimWorld(machines, simnet.Idle, seed, Options{
		NAS:        testNAS(),
		Registry:   testRegistry(),
		Durability: &d,
	})
	w.SetRMIPolicy(testPolicy())
	inj, err := w.InstallChaos(&chaos.Spec{}, 7)
	if err != nil {
		t.Fatalf("install chaos: %v", err)
	}
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, err := w.Register(w.Nodes()[0])
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		cb := a.NewCodebase()
		for _, c := range []string{"Counter", "Table"} {
			if err := cb.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := cb.LoadNodes(p, w.Nodes()...); err != nil {
			t.Fatal(err)
		}
		fn(w, a, inj, p)
	})
}

// durCounter creates a persisted Counter pinned to node, placed away
// from the home node so recovery never lands on the directory.
func durCounter(t *testing.T, a *App, p sched.Proc, node string) *Object {
	t.Helper()
	return durObject(t, a, p, "Counter", node, "Get", "Where")
}

// durObject is durCounter for any loaded class.
func durObject(t *testing.T, a *App, p sched.Proc, class, node string, reads ...string) *Object {
	t.Helper()
	vn, err := virtarch.NewNamedNode(a.Allocator(p), node)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := a.NewObject(p, class, vn, constraintNotNode(a.world.Nodes()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Persist(p, reads...); err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestPersistRequiresDurability: on a world without a WAL, Persist is a
// typed refusal, not a silent no-op.
func TestPersistRequiresDurability(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		obj, err := a.NewObject(p, "Counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Persist(p); err == nil || !strings.Contains(err.Error(), "durability not enabled") {
			t.Fatalf("Persist without durability = %v", err)
		}
	})
}

// TestDurableCrashRecoversAllAckedWrites is the headline contrast with
// checkpoint recovery: every acknowledged write — not just the last
// complete checkpoint — survives the crash, because the ack itself
// waited for the write to reach stable storage.
func TestDurableCrashRecoversAllAckedWrites(t *testing.T) {
	durWorld(t, DurabilityOptions{}, 1, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
		victim := w.Nodes()[1]
		obj := durCounter(t, a, p, victim)
		sum := 0
		for i := 1; i <= 10; i++ {
			if _, err := obj.SInvoke(p, "Add", i); err != nil {
				t.Fatalf("add %d: %v", i, err)
			}
			sum += i
		}
		// No checkpoint period, no settling: the last ack IS the
		// durability guarantee.
		if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
			t.Fatal(err)
		}
		loc := awaitRelocation(t, w, p, obj, victim)
		got, err := obj.SInvoke(p, "Get")
		if err != nil {
			t.Fatalf("invoke after recovery: %v", err)
		}
		if got.(int) != sum {
			t.Fatalf("recovered state = %v, want every acked write (%d)", got, sum)
		}
		if loc == victim {
			t.Fatalf("object still on dead node %s", loc)
		}
		// Replay happened and is on the record.
		var replays uint64
		for _, st := range w.WALStatus() {
			replays += st.Replays
		}
		if replays == 0 {
			t.Fatal("no WAL replay recorded")
		}
	})
}

// TestWALMetrics: every durability instrument the operators see —
// appends, group-commit batch size, checkpoint volume, replay duration
// — moves under a write-checkpoint-crash-replay cycle.
func TestWALMetrics(t *testing.T) {
	durWorld(t, DurabilityOptions{}, 21, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
		victim := w.Nodes()[1]
		obj := durCounter(t, a, p, victim)
		for i := 0; i < 20; i++ {
			if _, err := obj.SInvoke(p, "Add", 1); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
		// Every durable write logs the object's whole state, so a table
		// of long keys crosses the byte watermark within a few dozen puts
		// and the commit daemon folds the log at least once before the
		// crash — long before the age watermark could.
		tbl := durObject(t, a, p, "Table", victim, "Get", "Len")
		for i := 0; i < 60; i++ {
			if _, err := tbl.SInvoke(p, "Put", fmt.Sprintf("%0200d", i), i); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		p.Sleep(300 * time.Millisecond) // let the daemon reach the checkpoint watermark
		if now := w.Sched().Now(); now >= checkpointAge {
			t.Fatalf("writes took until %v: the age watermark (%v) may have folded the log, not the byte one", now, checkpointAge)
		}

		reg := w.Metrics()
		var appends, flushes, flushBytes, ckpts, ckptBytes int64
		for _, n := range w.Nodes() {
			appends += reg.Counter(metrics.Label("js_wal_appends_total", "node", n)).Value()
			flushes += reg.Counter(metrics.Label("js_wal_flushes_total", "node", n)).Value()
			flushBytes += reg.Counter(metrics.Label("js_wal_flush_bytes_total", "node", n)).Value()
			ckpts += reg.Counter(metrics.Label("js_wal_checkpoints_total", "node", n)).Value()
			ckptBytes += reg.Counter(metrics.Label("js_wal_checkpoint_bytes_total", "node", n)).Value()
		}
		if appends < 20 {
			t.Errorf("js_wal_appends_total = %d, want >= 20", appends)
		}
		if flushes < 1 || flushBytes < 1 {
			t.Errorf("flushes = %d, flush bytes = %d, want both > 0", flushes, flushBytes)
		}
		if ckpts < 1 || ckptBytes < 1 {
			t.Errorf("checkpoints = %d, checkpoint bytes = %d, want both > 0 past the byte watermark", ckpts, ckptBytes)
		}
		batch := reg.Histogram("js_wal_batch_records", nil)
		if batch.Count() < 1 || batch.Sum() < batch.Count() {
			t.Errorf("js_wal_batch_records count=%d sum=%d, want >= 1 record per flush", batch.Count(), batch.Sum())
		}

		// Crash and recover: replay duration lands in its histogram.
		if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
			t.Fatal(err)
		}
		awaitRelocation(t, w, p, obj, victim)
		if got, err := obj.SInvoke(p, "Get"); err != nil || got.(int) != 20 {
			t.Fatalf("recovered state = %v, %v", got, err)
		}
		if c := reg.Histogram("js_wal_replay_us", nil).Count(); c < 1 {
			t.Errorf("js_wal_replay_us count = %d, want >= 1 after recovery", c)
		}
	})
}

// TestChaosCrashDuringGroupCommit crashes the host while writers are
// parked on the next group commit.  The contract under test: no
// acknowledged write is lost, every parked writer resolves (deflection
// and retry, or a typed error — never a hang), and the final state is
// consistent with exactly the writes that were acknowledged.
func TestChaosCrashDuringGroupCommit(t *testing.T) {
	// A long commit interval guarantees the crash lands inside the
	// coalescing window with writers parked.
	durWorld(t, DurabilityOptions{CommitInterval: 200 * time.Millisecond}, 1,
		func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
			victim := w.Nodes()[1]
			obj := durCounter(t, a, p, victim)
			// One settled write so the log has a synced base.
			if _, err := obj.SInvoke(p, "Add", 1); err != nil {
				t.Fatal(err)
			}
			p.Sleep(400 * time.Millisecond) // covered by a flush

			const writers = 8
			done := make(chan error, writers)
			for i := 0; i < writers; i++ {
				w.Sched().Spawn(fmt.Sprintf("test.writer%d", i), func(sp sched.Proc) {
					_, err := obj.SInvoke(sp, "Add", 1)
					done <- err
				})
			}
			p.Sleep(50 * time.Millisecond) // writers parked mid-interval
			if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
				t.Fatal(err)
			}
			awaitRelocation(t, w, p, obj, victim)

			// Every writer resolves; count the acks.
			acked := 0
			deadline := w.Sched().Now() + 60*time.Second
			for i := 0; i < writers; {
				select {
				case err := <-done:
					if err == nil {
						acked++
					}
					i++
				default:
					if w.Sched().Now() > deadline {
						t.Fatalf("%d writers still blocked after crash", writers-i)
					}
					p.Sleep(100 * time.Millisecond)
				}
			}
			got, err := obj.SInvoke(p, "Get")
			if err != nil {
				t.Fatalf("read after recovery: %v", err)
			}
			// The settled write plus every acked one must be present; an
			// unacked write may additionally have reached the log right
			// before the crash (synced but the response raced the failure),
			// so the state is bounded by the attempt count.
			if got.(int) < 1+acked {
				t.Fatalf("recovered state %v lost acked writes (want >= %d)", got, 1+acked)
			}
			if got.(int) > 1+writers {
				t.Fatalf("recovered state %v exceeds all attempts (%d)", got, 1+writers)
			}
		})
}

// TestDurableCrashTruncatesTornTail: the node dies during the
// simulated disk wait between flush and sync, exactly like a power cut
// mid-fsync — the flushed-but-unsynced frames are torn at a seeded
// offset, and replay truncates the log at the last valid CRC frame
// without seeing the batch or choking on the garbage.
func TestDurableCrashTruncatesTornTail(t *testing.T) {
	// Slow disks stretch the flush-to-sync window to 300ms so the crash
	// reliably lands inside it.
	machines := simnet.PaperCluster()
	for i := range machines {
		machines[i].DiskSeek = 300 * time.Millisecond
	}
	// Seed 2: the seeded tear offset lands mid-frame (a boundary tear is
	// the rarer, also-legal outcome where zero bytes need truncating).
	durWorldOn(t, machines, DurabilityOptions{CommitInterval: 50 * time.Millisecond}, 2,
		func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
			victim := w.Nodes()[1]
			obj := durCounter(t, a, p, victim)
			if _, err := obj.SInvoke(p, "Add", 41); err != nil {
				t.Fatal(err)
			}
			p.Sleep(500 * time.Millisecond) // 41 synced

			// This write's batch is flushed at the next 50ms tick and then
			// sits on the platter for 300ms; the crash lands mid-transfer.
			done := make(chan error, 1)
			w.Sched().Spawn("test.torn", func(sp sched.Proc) {
				_, err := obj.SInvoke(sp, "Add", 1)
				done <- err
			})
			p.Sleep(150 * time.Millisecond)
			if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
				t.Fatal(err)
			}
			awaitRelocation(t, w, p, obj, victim)

			torn := false
			for _, st := range w.WALStatus() {
				if st.Node == victim && st.TornBytes > 0 {
					torn = true
				}
			}
			if !torn {
				t.Fatal("crash mid-interval left no torn bytes on the victim's log")
			}
			// The unacked write resolves one way or the other...
			var werr error
			deadline := w.Sched().Now() + 60*time.Second
			for waiting := true; waiting; {
				select {
				case werr = <-done:
					waiting = false
				default:
					if w.Sched().Now() > deadline {
						t.Fatal("torn writer never resolved")
					}
					p.Sleep(100 * time.Millisecond)
				}
			}
			// ...and the state is exactly 41 (write lost with the torn tail)
			// or 42 (the deflected writer retried against the recovered
			// object), never a corrupt in-between.
			got, err := obj.SInvoke(p, "Get")
			if err != nil {
				t.Fatal(err)
			}
			want := 41
			if werr == nil {
				want = 42
			}
			if got.(int) != want {
				t.Fatalf("state after torn-tail crash = %v (writer err %v), want %d", got, werr, want)
			}
		})
}

// TestWALDeterminism runs the same chaotic durable scenario twice on
// fresh stables and demands byte-identical logs on every node: the
// whole pipeline — group commit batching, checkpoint folding, crash
// truncation, replay — is a pure function of (workload, seed).
func TestWALDeterminism(t *testing.T) {
	run := func() *wal.Stable {
		stable := wal.NewStable(3)
		durWorld(t, DurabilityOptions{Stable: stable}, 3,
			func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
				victim := w.Nodes()[1]
				obj := durCounter(t, a, p, victim)
				for i := 0; i < 5; i++ {
					if _, err := obj.SInvoke(p, "Add", i); err != nil {
						t.Fatal(err)
					}
				}
				if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
					t.Fatal(err)
				}
				awaitRelocation(t, w, p, obj, victim)
				for i := 0; i < 5; i++ {
					if _, err := obj.SInvoke(p, "Add", i); err != nil {
						t.Fatal(err)
					}
				}
				p.Sleep(100 * time.Millisecond) // settle the last group commit
			})
		return stable
	}
	s1, s2 := run(), run()
	n1, n2 := s1.Nodes(), s2.Nodes()
	if !reflect.DeepEqual(n1, n2) {
		t.Fatalf("node sets differ: %v vs %v", n1, n2)
	}
	for _, n := range n1 {
		st1, st2 := s1.Node(n).Stats(), s2.Node(n).Stats()
		if st1 != st2 {
			t.Fatalf("log of %s differs between twin runs:\n%+v\n%+v", n, st1, st2)
		}
		if r1, r2 := s1.Node(n).Replay(), s2.Node(n).Replay(); !reflect.DeepEqual(r1, r2) {
			t.Fatalf("replayed image of %s differs between twin runs", n)
		}
	}
}

// TestGroupCommitCoalescesFlushes: concurrent writers inside one commit
// interval share a flush; the fsync-per-write baseline pays one per
// write.  This is the mechanism behind the recover experiment's >= 5x
// flush-reduction criterion.
func TestGroupCommitCoalescesFlushes(t *testing.T) {
	flushesFor := func(interval time.Duration) uint64 {
		var flushes uint64
		durWorld(t, DurabilityOptions{CommitInterval: interval}, 5,
			func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
				node := w.Nodes()[1]
				const objects = 10
				objs := make([]*Object, objects)
				for i := range objs {
					objs[i] = durCounter(t, a, p, node)
				}
				const rounds = 5
				done := make(chan struct{}, objects)
				for i := 0; i < objects; i++ {
					obj := objs[i]
					w.Sched().Spawn(fmt.Sprintf("test.load%d", i), func(sp sched.Proc) {
						for r := 0; r < rounds; r++ {
							if _, err := obj.SInvoke(sp, "Add", 1); err != nil {
								t.Errorf("write: %v", err)
							}
						}
						done <- struct{}{}
					})
				}
				deadline := w.Sched().Now() + 60*time.Second
				for i := 0; i < objects; {
					select {
					case <-done:
						i++
					default:
						if w.Sched().Now() > deadline {
							t.Fatalf("%d writers never finished", objects-i)
						}
						p.Sleep(20 * time.Millisecond)
					}
				}
				for _, st := range w.WALStatus() {
					if st.Node == node {
						flushes = st.Flushes
					}
				}
			})
		return flushes
	}
	grouped := flushesFor(DefaultCommitInterval)
	perWrite := flushesFor(-1)
	if grouped == 0 || perWrite == 0 {
		t.Fatalf("no flushes recorded (grouped=%d, perWrite=%d)", grouped, perWrite)
	}
	if perWrite < 5*grouped {
		t.Fatalf("group commit saved too little: %d flushes vs %d per-write (want >= 5x)", grouped, perWrite)
	}
}

// TestDurableClusterRestart is the scenario checkpoint recovery cannot
// survive: EVERY node goes down at once.  A second world over the same
// stable storage replays the logs and gets back plain objects, the
// replica set, and the shard group — ring membership and all.
func TestDurableClusterRestart(t *testing.T) {
	stable := wal.NewStable(9)
	type snapshot struct {
		counterID uint64
		counter   int
		members   []string
		owners    map[string]string
	}
	var before snapshot

	durWorld(t, DurabilityOptions{Stable: stable}, 9,
		func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
			obj := durCounter(t, a, p, w.Nodes()[1])
			if _, err := obj.SInvoke(p, "Add", 77); err != nil {
				t.Fatal(err)
			}
			// A replicated durable object: MinSync copies are logged copies.
			robj, err := a.NewObject(p, "Counter", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := robj.Replicate(p, replica.Policy{N: 2, Mode: replica.Eventual, MinSync: 1, Reads: []string{"Get", "Where"}}); err != nil {
				t.Fatal(err)
			}
			if err := robj.Persist(p, "Get", "Where"); err != nil {
				t.Fatal(err)
			}
			if _, err := robj.SInvoke(p, "Add", 5); err != nil {
				t.Fatal(err)
			}
			// A persisted shard group with data.
			g, err := a.NewShardGroup(p, "kv", "Table", ShardSpec{Shards: 3, Reads: []string{"Get", "Len"}})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Persist(p); err != nil {
				t.Fatal(err)
			}
			keys := []string{"k1", "k2", "k3", "k4", "k5"}
			owners := make(map[string]string)
			for i, k := range keys {
				if _, err := g.Invoke(p, k, "Put", k, 10+i); err != nil {
					t.Fatal(err)
				}
				owners[k] = g.Owner(k)
			}
			before = snapshot{counterID: obj.id, counter: 77, members: g.Shards(), owners: owners}
			p.Sleep(100 * time.Millisecond) // settle the final group commit
			// NO unregister, no warning: the whole cluster now "loses power"
			// (the world is simply torn down).
		})

	// The same stable storage, a brand-new world: replay everything.
	w2 := NewSimWorld(simnet.PaperCluster(), simnet.Idle, 10, Options{
		NAS:        testNAS(),
		Registry:   testRegistry(),
		Durability: &DurabilityOptions{Stable: stable},
	})
	w2.SetRMIPolicy(testPolicy())
	w2.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, err := w2.Register(w2.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		cb := a.NewCodebase()
		for _, c := range []string{"Counter", "Table"} {
			if err := cb.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := cb.LoadNodes(p, w2.Nodes()...); err != nil {
			t.Fatal(err)
		}
		recs, err := a.RecoverDurable(p)
		if err != nil {
			t.Fatalf("recover durable: %v", err)
		}
		if len(recs) != 1 {
			t.Fatalf("recovered %d manifests, want 1", len(recs))
		}
		rec := recs[0]
		if len(rec.Lost) != 0 || len(rec.LostShards) != 0 {
			t.Fatalf("restart lost synced state: objects %v, shards %v", rec.Lost, rec.LostShards)
		}
		// The plain counter, under its original id, with every acked write.
		c, ok := rec.Objects[before.counterID]
		if !ok {
			t.Fatalf("counter id %d not recovered (got %v)", before.counterID, rec.Objects)
		}
		if got, err := c.SInvoke(p, "Get"); err != nil || got.(int) != before.counter {
			t.Fatalf("recovered counter = %v, %v, want %d", got, err, before.counter)
		}
		// The replicated object's write survived every holder dying.
		found := false
		for _, o := range rec.Objects {
			got, err := o.SInvoke(p, "Get")
			if err == nil && got.(int) == 5 {
				found = true
			}
		}
		if !found {
			t.Fatal("replicated durable object's acked write did not survive the restart")
		}
		// The shard group: identical ring, identical ownership, data intact.
		if len(rec.Groups) != 1 {
			t.Fatalf("recovered %d groups, want 1", len(rec.Groups))
		}
		g := rec.Groups[0]
		if !reflect.DeepEqual(g.Shards(), before.members) {
			t.Fatalf("restored ring %v, want %v", g.Shards(), before.members)
		}
		for k, own := range before.owners {
			if g.Owner(k) != own {
				t.Fatalf("key %q owned by %s after restart, was %s", k, g.Owner(k), own)
			}
		}
		for i, k := range []string{"k1", "k2", "k3", "k4", "k5"} {
			got, err := g.Invoke(p, k, "Get", k)
			if err != nil || got.(int) != 10+i {
				t.Fatalf("group key %q = %v, %v after restart, want %d", k, got, err, 10+i)
			}
		}
		// The recovered objects are fully live: writes keep flowing.
		if got, err := c.SInvoke(p, "Add", 1); err != nil || got.(int) != before.counter+1 {
			t.Fatalf("post-restart write = %v, %v", got, err)
		}
	})
}

// TestShardGroupStoreRestoresRing is the regression test for group
// persistence: a persisted sharded group that has grown must come back
// from its logs with identical ring membership — member names, not
// placement, own the keys — so every key resolves to the shard holding
// its data, and a later Grow must not reuse a restored member's name.
func TestShardGroupStoreRestoresRing(t *testing.T) {
	stable := wal.NewStable(9)
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	var stored []string
	owners := make(map[string]string, len(keys))
	restoreWorld(t, 9, nil, &DurabilityOptions{Stable: stable}, func(w *World, a *App, _ *chaos.Injector, p sched.Proc) {
		g, err := a.NewShardGroup(p, "t", "Table", ShardSpec{Shards: 3, Reads: []string{"Get", "Len"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Persist(p); err != nil {
			t.Fatal(err)
		}
		// Grow once so the members are not the trivial 0..S-1 run: the
		// restore must recover the real ring, and the name high-water mark.
		if _, err := g.Grow(p, ""); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if _, err := g.Invoke(p, k, "Put", k, 100+i); err != nil {
				t.Fatal(err)
			}
			owners[k] = g.Owner(k)
		}
		stored = g.Shards()
		p.Sleep(100 * time.Millisecond) // settle the final group commit
	})
	restoreWorld(t, 10, nil, &DurabilityOptions{Stable: stable}, func(w *World, a *App, _ *chaos.Injector, p sched.Proc) {
		recs, err := a.RecoverDurable(p)
		if err != nil || len(recs) != 1 || len(recs[0].Groups) != 1 {
			t.Fatalf("RecoverDurable = %+v, %v, want one manifest with one group", recs, err)
		}
		g := recs[0].Groups[0]
		if got := g.Shards(); !reflect.DeepEqual(got, stored) {
			t.Fatalf("restored ring %v, stored ring %v", got, stored)
		}
		for i, k := range keys {
			if own := g.Owner(k); own != owners[k] {
				t.Fatalf("key %q owned by %s after restore, was %s", k, own, owners[k])
			}
			if v, err := g.Invoke(p, k, "Get", k); err != nil || v.(int) != 100+i {
				t.Fatalf("key %q = %v, %v after restore, want %d", k, v, err, 100+i)
			}
		}
		sname, err := g.Grow(p, "")
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(stored, sname) {
			t.Fatalf("grown shard reused restored member name %s", sname)
		}
	})
}

// TestSnapshotBaselineLosesOnClusterRestart pins the negative control
// the recover experiment reports: with checkpoint recovery only (no
// WAL), acked writes since the last checkpoint do not survive a
// whole-cluster restart — there is nowhere to replay them from.
func TestSnapshotBaselineLosesOnClusterRestart(t *testing.T) {
	storage := NewMemStorage() // survives the world like a real external store
	w := NewSimWorld(simnet.PaperCluster(), simnet.Idle, 9, Options{
		NAS:      testNAS(),
		Registry: testRegistry(),
		Storage:  storage,
	})
	var key string
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, err := w.Register(w.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		cb := a.NewCodebase()
		if err := cb.Add("Counter"); err != nil {
			t.Fatal(err)
		}
		if err := cb.LoadNodes(p, w.Nodes()...); err != nil {
			t.Fatal(err)
		}
		obj, err := a.NewObject(p, "Counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obj.SInvoke(p, "Add", 41); err != nil {
			t.Fatal(err)
		}
		if key, err = obj.Store(p, "snap"); err != nil {
			t.Fatal(err)
		}
		// Acked after the snapshot; the cluster dies before the next one.
		if _, err := obj.SInvoke(p, "Add", 1); err != nil {
			t.Fatal(err)
		}
	})

	w2 := NewSimWorld(simnet.PaperCluster(), simnet.Idle, 10, Options{
		NAS:      testNAS(),
		Registry: testRegistry(),
		Storage:  storage,
	})
	w2.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, err := w2.Register(w2.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		defer a.Unregister(p)
		cb := a.NewCodebase()
		if err := cb.Add("Counter"); err != nil {
			t.Fatal(err)
		}
		if err := cb.LoadNodes(p, w2.Nodes()...); err != nil {
			t.Fatal(err)
		}
		obj, err := a.Load(p, key, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := obj.SInvoke(p, "Get")
		if err != nil {
			t.Fatal(err)
		}
		// 41, not 42: the post-snapshot acked write is provably gone.
		if got.(int) != 41 {
			t.Fatalf("snapshot baseline restored %v, expected to lose the post-snapshot write (41)", got)
		}
	})
}
