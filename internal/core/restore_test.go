package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"jsymphony/internal/chaos"
	"jsymphony/internal/metrics"
	"jsymphony/internal/params"
	"jsymphony/internal/replica"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
	"jsymphony/internal/wal"
)

// Restore conformance: whichever store an image comes from and whichever
// way it is brought back, the restored object must satisfy the same
// post-conditions.  One table, image source x object shape.

// restoreShapes are the object shapes a restore must handle.  Each holds
// a Table with {"k": 41} whose primary lives on the victim node.
var restoreShapes = []string{"plain", "replicated", "shard-member"}

var restorePolicy = replica.Policy{N: 2, Mode: replica.Eventual, MinSync: 1, Reads: []string{"Get", "Len"}}

// restoreSubject is one object under test, before or after its restore.
type restoreSubject struct {
	obj   *Object
	group *ShardGroup // non-nil for a shard member
}

// makeSubject creates the shape's object on victim (placed away from the
// home node, so neither it nor its replicas ever share the directory's
// machine) and, when persist is set, marks it durable before the write
// the restore must bring back.
func makeSubject(t *testing.T, a *App, p sched.Proc, shape, victim string, persist bool) restoreSubject {
	t.Helper()
	vn, err := virtarch.NewNamedNode(a.Allocator(p), victim)
	if err != nil {
		t.Fatal(err)
	}
	notHome := constraintNotNode(a.Home())
	var s restoreSubject
	if shape == "shard-member" {
		a.world.SetDefaultConstraints(notHome)
		g, err := a.NewShardGroup(p, "g", "Table", ShardSpec{Shards: 2, Reads: restorePolicy.Reads})
		if err != nil {
			t.Fatal(err)
		}
		s.group = g
		s.obj, _ = g.Object(g.Owner("k"))
		if err := s.obj.Migrate(p, vn, nil); err != nil {
			t.Fatal(err)
		}
		if persist {
			if err := g.Persist(p); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		if s.obj, err = a.NewObject(p, "Table", vn, notHome); err != nil {
			t.Fatal(err)
		}
		if shape == "replicated" {
			if err := s.obj.Replicate(p, restorePolicy); err != nil {
				t.Fatal(err)
			}
		}
		if persist {
			if err := s.obj.Persist(p, restorePolicy.Reads...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.obj.SInvoke(p, "Put", "k", 41); err != nil {
		t.Fatal(err)
	}
	return s
}

// setNodes returns every node holding a copy of the subject.
func setNodes(t *testing.T, a *App, s restoreSubject) []string {
	t.Helper()
	e, err := a.entry(s.obj.id)
	if err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string{e.location}, e.replicas...)
}

// crashAndAwait kills every node holding a copy at the same instant —
// a replicated object with a survivor is promoted, not restored, so the
// whole set has to die for the image path to run — and waits for the
// same handle to come back elsewhere.
func crashAndAwait(t *testing.T, w *World, a *App, inj *chaos.Injector, p sched.Proc, s restoreSubject) []string {
	t.Helper()
	dead := setNodes(t, a, s)
	for _, n := range dead {
		if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: n}); err != nil {
			t.Fatal(err)
		}
	}
	awaitRelocation(t, w, p, s.obj, dead[0])
	return dead
}

// restoreWorld runs fn in a chaos-armed sim world with the Table class
// loaded everywhere; dur, when non-nil, enables the WAL.  The app is not
// unregistered: durable objects outlive it.
func restoreWorld(t *testing.T, seed int64, storage Storage, dur *DurabilityOptions, fn func(w *World, a *App, inj *chaos.Injector, p sched.Proc)) {
	t.Helper()
	w := NewSimWorld(simnet.PaperCluster(), simnet.Idle, seed, Options{
		NAS: testNAS(), Registry: testRegistry(), Storage: storage, Durability: dur,
	})
	w.SetRMIPolicy(testPolicy())
	inj, err := w.InstallChaos(&chaos.Spec{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, err := w.Register(w.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		loadTable(t, a, p)
		fn(w, a, inj, p)
	})
}

// checkRestored asserts the post-conditions every restore shares.  kind
// is the event the restore must have traced exactly once for the object;
// counter ("" when the path has none) must agree with the trace; dead
// nodes must hold no copy.
func checkRestored(t *testing.T, w *World, a *App, p sched.Proc, s restoreSubject, shape string, kind trace.Kind, via string, dead []string) {
	t.Helper()
	isDead := make(map[string]bool)
	for _, n := range dead {
		isDead[n] = true
	}
	ref, err := s.obj.Ref()
	if err != nil {
		t.Fatalf("restored handle has no ref: %v", err)
	}
	// State equal, through the handle, the group router, and a foreign
	// node resolving the first-order ref.
	if got, err := s.obj.SInvoke(p, "Get", "k"); err != nil || got.(int) != 41 {
		t.Fatalf("state through the handle = %v, %v, want 41", got, err)
	}
	if s.group != nil {
		if got, err := s.group.Invoke(p, "k", "Get", "k"); err != nil || got.(int) != 41 {
			t.Fatalf("state through the group router = %v, %v, want 41", got, err)
		}
	}
	var foreign *Runtime
	for _, n := range w.Nodes() {
		if n != a.Home() && !isDead[n] {
			foreign = w.MustRuntime(n)
		}
	}
	if got, err := foreign.InvokeRef(p, ref, "Get", []any{"k"}); err != nil || got.(int) != 41 {
		t.Fatalf("state through the ref from %s = %v, %v, want 41", foreign.Node(), got, err)
	}
	if loc, _ := s.obj.NodeName(); isDead[loc] {
		t.Fatalf("restored object sits on dead node %s", loc)
	}
	// The restored copy is fully live.
	if _, err := s.obj.SInvoke(p, "Put", "k", 42); err != nil {
		t.Fatalf("write after restore: %v", err)
	}
	if got, err := s.obj.SInvoke(p, "Get", "k"); err != nil || got.(int) != 42 {
		t.Fatalf("read after post-restore write = %v, %v, want 42", got, err)
	}
	// One event for this object, naming the store its image came from.
	mine := 0
	for _, ev := range w.Trace().Filter(kind) {
		if ev.App == ref.App && ev.Obj == ref.ID {
			mine++
			if !strings.HasPrefix(ev.Detail, via) {
				t.Fatalf("%s event detail %q, want prefix %q", kind, ev.Detail, via)
			}
		}
	}
	if mine != 1 {
		t.Fatalf("%d %s events for %s/%d, want exactly 1", mine, kind, ref.App, ref.ID)
	}
	// Replica set rebuilt to full strength on live nodes, and published.
	if shape != "replicated" {
		return
	}
	deadline := w.Sched().Now() + 60*time.Second
	for {
		var set *replica.Set
		for _, info := range a.ReplicaSets() {
			if info.Ref.ID == ref.ID {
				set = &info.Set
			}
		}
		healthy := set != nil && len(set.Replicas) == restorePolicy.N && !isDead[set.Primary]
		if healthy {
			for _, n := range set.Replicas {
				healthy = healthy && !isDead[n]
			}
		}
		if healthy {
			published := false
			for _, info := range w.dir.ReplicaSets() {
				if info.Key == refKey(ref.App, ref.ID) {
					published = info.Primary == set.Primary && fmt.Sprint(info.Replicas) == fmt.Sprint(set.Replicas)
				}
			}
			if !published {
				t.Fatalf("rebuilt set %+v is not what the directory advertises", *set)
			}
			return
		}
		if w.Sched().Now() > deadline {
			t.Fatalf("replica set never came back to %d live members: %+v", restorePolicy.N, set)
		}
		p.Sleep(200 * time.Millisecond)
	}
}

func TestRestoreConformance(t *testing.T) {
	sources := []struct {
		name   string
		shapes []string
		run    func(t *testing.T, shape string)
	}{
		{"checkpoint", restoreShapes, func(t *testing.T, shape string) {
			restoreWorld(t, 1, nil, nil, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
				defer a.Unregister(p)
				a.EnableRecovery(200 * time.Millisecond)
				s := makeSubject(t, a, p, shape, w.Nodes()[1], false)
				p.Sleep(500 * time.Millisecond) // > 2 checkpoint periods
				dead := crashAndAwait(t, w, a, inj, p, s)
				checkRestored(t, w, a, p, s, shape, trace.ObjRecovered, "from ", dead)
			})
		}},
		{"wal-same-handle", restoreShapes, func(t *testing.T, shape string) {
			restoreWorld(t, 1, nil, &DurabilityOptions{}, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
				s := makeSubject(t, a, p, shape, w.Nodes()[1], true)
				// No settling: the write's ack is the durability guarantee.
				dead := crashAndAwait(t, w, a, inj, p, s)
				checkRestored(t, w, a, p, s, shape, trace.ObjRecovered, "wal replay from ", dead)
			})
		}},
		{"wal-restart", restoreShapes, func(t *testing.T, shape string) {
			stable := wal.NewStable(9)
			var id uint64
			restoreWorld(t, 9, nil, &DurabilityOptions{Stable: stable}, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
				id = makeSubject(t, a, p, shape, w.Nodes()[1], true).obj.id
				p.Sleep(100 * time.Millisecond) // settle the manifest's group commit
			})
			restoreWorld(t, 10, nil, &DurabilityOptions{Stable: stable}, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
				recs, err := a.RecoverDurable(p)
				if err != nil || len(recs) != 1 {
					t.Fatalf("RecoverDurable = %d manifests, %v", len(recs), err)
				}
				if rec := recs[0]; len(rec.Lost)+len(rec.LostShards) != 0 {
					t.Fatalf("restart lost synced state: objects %v, shards %v", rec.Lost, rec.LostShards)
				}
				var s restoreSubject
				if shape == "shard-member" {
					s.group = recs[0].Groups[0]
					s.obj, _ = s.group.Object(s.group.Owner("k"))
				} else {
					s.obj = recs[0].Objects[id]
				}
				if s.obj == nil {
					t.Fatalf("object %d not among the restored: %+v", id, recs[0])
				}
				checkRestored(t, w, a, p, s, shape, trace.ObjRecovered, "wal restore of ", nil)
			})
		}},
		// Storage holds single objects: a shard group is restored only
		// from the WAL.
		{"load", []string{"plain", "replicated"}, func(t *testing.T, shape string) {
			restoreWorld(t, 1, nil, nil, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
				defer a.Unregister(p)
				s := makeSubject(t, a, p, shape, w.Nodes()[1], false)
				// A second application restores it: stored images are
				// self-contained.
				b, err := w.Register(w.Nodes()[2])
				if err != nil {
					t.Fatal(err)
				}
				defer b.Unregister(p)
				loadTable(t, b, p)
				key, err := s.obj.Store(p, "img")
				if err != nil {
					t.Fatal(err)
				}
				var r restoreSubject
				if r.obj, err = b.Load(p, key, nil, constraintNotNode(b.Home())); err != nil {
					t.Fatal(err)
				}
				checkRestored(t, w, b, p, r, shape, trace.ObjLoaded, "", nil)
			})
		}},
	}
	for _, src := range sources {
		for _, shape := range src.shapes {
			t.Run(src.name+"/"+shape, func(t *testing.T) { src.run(t, shape) })
		}
	}
}

// flakyStorage fails every Get once broken, with an error that is not
// ErrNotFound: the store is down, which is not the same as empty.
type flakyStorage struct {
	Storage
	broken bool
}

func (f *flakyStorage) Get(key string) (PersistRecord, error) {
	if f.broken {
		return PersistRecord{}, errors.New("flaky storage: backend unreachable")
	}
	return f.Storage.Get(key)
}

// TestRecoverPlacementAndLoss pins where a re-homed object may land and
// how each way of losing one is reported: the returned lost list, one
// obj.lost event whose detail is the cause, and the cause-labeled counter.
func TestRecoverPlacementAndLoss(t *testing.T) {
	rows := []struct {
		name string
		// place returns the component and constraints the object is
		// created with; cluster receives a 2-node cluster away from home.
		place      func(victim *virtarch.Node, cluster *virtarch.Cluster, home string) (virtarch.Component, *params.Constraints)
		checkpoint bool
		breakStore bool
		// wantIn, when set, names where the recovered object must land.
		wantIn func(loc, victim, home string, cluster []string) bool
		cause  string // "" = must be recovered
	}{
		{
			name: "component alive: stays inside it",
			place: func(_ *virtarch.Node, c *virtarch.Cluster, home string) (virtarch.Component, *params.Constraints) {
				return c, constraintNotNode(home)
			},
			checkpoint: true,
			wantIn: func(loc, victim, _ string, cluster []string) bool {
				return loc != victim && (loc == cluster[0] || loc == cluster[1])
			},
		},
		{
			name: "component dead: any satisfying live node",
			place: func(v *virtarch.Node, _ *virtarch.Cluster, home string) (virtarch.Component, *params.Constraints) {
				return v, constraintNotNode(home)
			},
			checkpoint: true,
			wantIn:     func(loc, victim, home string, _ []string) bool { return loc != victim && loc != home },
		},
		{
			name: "no live candidate",
			place: func(v *virtarch.Node, _ *virtarch.Cluster, _ string) (virtarch.Component, *params.Constraints) {
				return nil, params.NewConstraints().MustSet(params.NodeName, "==", v.Name())
			},
			checkpoint: true,
			cause:      lostNoLiveNode,
		},
		{
			name: "never checkpointed",
			place: func(v *virtarch.Node, _ *virtarch.Cluster, _ string) (virtarch.Component, *params.Constraints) {
				return v, nil
			},
			cause: lostNoImage,
		},
		{
			name: "store down",
			place: func(v *virtarch.Node, _ *virtarch.Cluster, _ string) (virtarch.Component, *params.Constraints) {
				return v, nil
			},
			checkpoint: true,
			breakStore: true,
			cause:      lostStoreError,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			storage := &flakyStorage{Storage: NewMemStorage()}
			restoreWorld(t, 1, storage, nil, func(w *World, a *App, _ *chaos.Injector, p sched.Proc) {
				defer a.Unregister(p)
				home := a.Home()
				cluster, err := virtarch.NewCluster(a.Allocator(p), 2, constraintNotNode(home))
				if err != nil {
					t.Fatal(err)
				}
				// The victim is whichever cluster node JRS would pick, so the
				// same node serves the rows that pin to it.
				probe, err := a.NewObject(p, "Table", cluster, nil)
				if err != nil {
					t.Fatal(err)
				}
				victimName, _ := probe.NodeName()
				if err := probe.Free(p); err != nil {
					t.Fatal(err)
				}
				victim, err := virtarch.NewNamedNode(a.Allocator(p), victimName)
				if err != nil {
					t.Fatal(err)
				}
				comp, constr := row.place(victim, cluster, home)
				obj, err := a.NewObject(p, "Table", comp, constr)
				if err != nil {
					t.Fatal(err)
				}
				if loc, _ := obj.NodeName(); loc != victimName {
					t.Fatalf("object placed on %s, the row needs it on %s", loc, victimName)
				}
				if _, err := obj.SInvoke(p, "Put", "k", 41); err != nil {
					t.Fatal(err)
				}
				if row.checkpoint {
					a.checkpointAll(p)
				}
				storage.broken = row.breakStore
				ref, _ := obj.Ref()

				// The pass is driven directly: no detector is armed, so it runs
				// exactly once and a loss is reported exactly once.
				recovered, lost := a.RecoverFrom(p, victimName)
				lostEvents := w.Trace().Filter(objLost)
				lostCount := func(cause string) int64 {
					return w.Metrics().Counter(metrics.Label("js_core_recovery_lost_total", "cause", cause)).Value()
				}
				if row.cause == "" {
					if len(recovered) != 1 || recovered[0] != ref || len(lost) != 0 || len(lostEvents) != 0 {
						t.Fatalf("recovered=%v lost=%v lost events=%v, want the object recovered", recovered, lost, lostEvents)
					}
					loc, _ := obj.NodeName()
					if !row.wantIn(loc, victimName, home, cluster.NodeNames()) {
						t.Fatalf("re-homed from %s to %s (home %s, cluster %v)", victimName, loc, home, cluster.NodeNames())
					}
					if got, err := obj.SInvoke(p, "Get", "k"); err != nil || got.(int) != 41 {
						t.Fatalf("state after re-home = %v, %v, want 41", got, err)
					}
					return
				}
				if len(recovered) != 0 || len(lost) != 1 || lost[0] != ref {
					t.Fatalf("recovered=%v lost=%v, want %v lost", recovered, lost, ref)
				}
				if len(lostEvents) != 1 || lostEvents[0].Detail != row.cause || lostEvents[0].Obj != ref.ID || lostEvents[0].Node != victimName {
					t.Fatalf("lost events = %v, want one for %s/%d on %s with cause %s", lostEvents, ref.App, ref.ID, victimName, row.cause)
				}
				for _, c := range []string{lostNoImage, lostStoreError, lostNoLiveNode} {
					want := int64(0)
					if c == row.cause {
						want = 1
					}
					if got := lostCount(c); got != want {
						t.Fatalf("js_core_recovery_lost_total{cause=%q} = %d, want %d", c, got, want)
					}
				}
			})
		})
	}
}

// TestNewShardGroupFreesMembersOnFailure: when member k of a new group
// cannot be made, members 0..k-1 must not stay hosted with no group
// owning them.
func TestNewShardGroupFreesMembersOnFailure(t *testing.T) {
	restoreWorld(t, 1, nil, nil, func(w *World, a *App, _ *chaos.Injector, p sched.Proc) {
		defer a.Unregister(p)
		hosted := func() map[string]int {
			out := make(map[string]int)
			for _, n := range w.Nodes() {
				out[n] = w.MustRuntime(n).Objects()
			}
			return out
		}
		live := func() (n int) {
			a.mu.Lock()
			defer a.mu.Unlock()
			for _, e := range a.objs {
				if !e.freed {
					n++
				}
			}
			return n
		}
		spec := ShardSpec{Shards: 3, Replication: &restorePolicy, InitMethod: "InitBudgeted"}
		before := hosted()
		tableInits.Store(2) // the third member's init fails
		if _, err := a.NewShardGroup(p, "g", "Table", spec); err == nil || !strings.Contains(err.Error(), "init budget spent") {
			t.Fatalf("NewShardGroup with a failing member = %v, want the init error", err)
		}
		if n := live(); n != 0 {
			t.Fatalf("failed NewShardGroup left %d objects in the application's table", n)
		}
		if after := hosted(); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("failed NewShardGroup leaked hosted objects:\nbefore %v\nafter  %v", before, after)
		}
		if _, ok := a.ShardGroup("g"); ok {
			t.Fatal("failed NewShardGroup registered the group")
		}
		// The name is free again: a retry with budget to spare succeeds.
		tableInits.Store(3)
		if _, err := a.NewShardGroup(p, "g", "Table", spec); err != nil {
			t.Fatalf("retry with every init allowed: %v", err)
		}
	})
}
