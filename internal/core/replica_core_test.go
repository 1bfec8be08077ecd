package core

import (
	"testing"
	"time"

	"jsymphony/internal/chaos"
	"jsymphony/internal/replica"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
)

// readPolicy is the Counter policy the replica tests use.
func readPolicy(n int, mode replica.Mode) replica.Policy {
	return replica.Policy{N: n, Mode: mode, Reads: []string{"Get", "Where"}}
}

// replicatedCounter creates a Counter pinned to node, seeds it with 41,
// and replicates it under pol.
func replicatedCounter(t *testing.T, a *App, p sched.Proc, node string, pol replica.Policy) *Object {
	t.Helper()
	vn, err := virtarch.NewNamedNode(a.Allocator(p), node)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := a.NewObject(p, "Counter", vn, constraintNotNode(a.world.Nodes()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.SInvoke(p, "Add", 41); err != nil {
		t.Fatal(err)
	}
	if err := obj.Replicate(p, pol); err != nil {
		t.Fatalf("replicate: %v", err)
	}
	return obj
}

func TestReplicateMaterializesAndServesReads(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		obj := replicatedCounter(t, a, p, w.Nodes()[1], readPolicy(2, replica.Strong))

		sets := a.ReplicaSets()
		if len(sets) != 1 || len(sets[0].Set.Replicas) != 2 {
			t.Fatalf("replica sets = %+v, want one set with 2 replicas", sets)
		}
		for _, n := range sets[0].Set.Replicas {
			if n == w.Nodes()[1] {
				t.Fatalf("primary %s is in its own replica set", n)
			}
		}
		// The directory mirrors the set.
		if dsets := w.Directory().ReplicaSets(); len(dsets) != 1 || dsets[0].Primary != w.Nodes()[1] {
			t.Fatalf("directory replica sets = %+v", dsets)
		}
		// Replica copies hold the seeded state.
		ref, _ := obj.Ref()
		for _, n := range sets[0].Set.Replicas {
			inst, ok := w.MustRuntime(n).Instance(ref)
			if !ok {
				t.Fatalf("replica %s has no instance", n)
			}
			if got := inst.(*Counter).N; got != 41 {
				t.Fatalf("replica %s state = %d, want 41", n, got)
			}
		}
		// Declared reads stay correct and are (at least sometimes) served
		// by replicas.
		for i := 0; i < 12; i++ {
			got, err := obj.SInvoke(p, "Get")
			if err != nil || got.(int) != 41 {
				t.Fatalf("read %d = %v, %v", i, got, err)
			}
		}
		hits := w.Metrics().Counter("js_replica_read_hits_total").Value()
		prim := w.Metrics().Counter("js_replica_read_primary_total").Value()
		if hits+prim < 12 {
			t.Fatalf("read accounting: hits=%v primary=%v, want >= 12 total", hits, prim)
		}
		if hits == 0 {
			t.Fatal("no read was ever served by a replica")
		}
		if len(w.Trace().Filter(trace.ReplicaCreated)) == 0 {
			t.Fatal("no replica.created event traced")
		}
	})
}

func TestReplicaStrongWritePropagatesSynchronously(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		obj := replicatedCounter(t, a, p, w.Nodes()[1], readPolicy(2, replica.Strong))
		ref, _ := obj.Ref()
		if got, err := obj.SInvoke(p, "Add", 1); err != nil || got.(int) != 42 {
			t.Fatalf("write = %v, %v", got, err)
		}
		// Strong mode: by the time the write returned, every replica
		// applied it.
		for _, info := range a.ReplicaSets() {
			for _, n := range info.Set.Replicas {
				inst, ok := w.MustRuntime(n).Instance(ref)
				if !ok || inst.(*Counter).N != 42 {
					t.Fatalf("replica %s did not apply the write synchronously", n)
				}
			}
		}
		// And reads anywhere see it immediately.
		for i := 0; i < 6; i++ {
			if got, err := obj.SInvoke(p, "Get"); err != nil || got.(int) != 42 {
				t.Fatalf("post-write read = %v, %v", got, err)
			}
		}
	})
}

func TestReplicaEventualConvergesAndReportsStaleness(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		obj := replicatedCounter(t, a, p, w.Nodes()[1], readPolicy(2, replica.Eventual))
		ref, _ := obj.Ref()
		if _, err := obj.SInvoke(p, "Add", 1); err != nil {
			t.Fatal(err)
		}
		// One-way fan-out: give the posts time to land, then every copy
		// has converged.
		p.Sleep(time.Second)
		for _, info := range a.ReplicaSets() {
			for _, n := range info.Set.Replicas {
				inst, ok := w.MustRuntime(n).Instance(ref)
				if !ok || inst.(*Counter).N != 42 {
					t.Fatalf("replica %s did not converge", n)
				}
			}
		}
		for i := 0; i < 12; i++ {
			if got, err := obj.SInvoke(p, "Get"); err != nil || got.(int) != 42 {
				t.Fatalf("read = %v, %v", got, err)
			}
		}
		if w.Metrics().Counter("js_replica_read_hits_total").Value() == 0 {
			t.Fatal("no replica-served read")
		}
		// Replica-served eventual reads report bounded staleness on
		// their spans.
		stale := 0
		for _, sp := range w.Spans().Spans() {
			if sp.Staleness > 0 {
				stale++
			}
		}
		if stale == 0 {
			t.Fatal("no read span reports its staleness")
		}
	})
}

// replicaChaosWorld is recoverWorld without EnableRecovery: promotion
// must restore availability from live replicas alone, with no
// checkpointing in the picture.
func replicaChaosWorld(t *testing.T, fn func(w *World, a *App, inj *chaos.Injector, p sched.Proc)) {
	t.Helper()
	w := NewSimWorld(simnet.PaperCluster(), simnet.Idle, 1, Options{
		NAS:      testNAS(),
		Registry: testRegistry(),
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
		defer a.Unregister(p)
		cb := a.NewCodebase()
		if err := cb.Add("Counter"); err != nil {
			t.Fatal(err)
		}
		if err := cb.LoadNodes(p, w.Nodes()...); err != nil {
			t.Fatal(err)
		}
		fn(w, a, inj, p)
	})
}

func TestReplicaPromotionOnPrimaryCrash(t *testing.T) {
	replicaChaosWorld(t, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
		victim := w.Nodes()[1]
		obj := replicatedCounter(t, a, p, victim, readPolicy(2, replica.Strong))
		// A strong write acked before the crash must survive it.
		if got, err := obj.SInvoke(p, "Add", 1); err != nil || got.(int) != 42 {
			t.Fatalf("pre-crash write = %v, %v", got, err)
		}
		if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
			t.Fatalf("inject crash: %v", err)
		}
		newLoc := awaitRelocation(t, w, p, obj, victim)
		if got, err := obj.SInvoke(p, "Get"); err != nil || got.(int) != 42 {
			t.Fatalf("read after promotion = %v, %v (want 42: no lost writes)", got, err)
		}
		if got, err := obj.SInvoke(p, "Add", 1); err != nil || got.(int) != 43 {
			t.Fatalf("write after promotion = %v, %v", got, err)
		}
		if len(w.Trace().Filter(trace.ReplicaPromoted)) == 0 {
			t.Fatal("no replica.promoted event traced")
		}
		if w.Metrics().Counter("js_replica_promotions_total").Value() == 0 {
			t.Fatal("promotion counter never moved")
		}
		if w.Metrics().Histogram("js_replica_promotion_us", nil).Count() == 0 {
			t.Fatal("promotion latency never observed")
		}
		// The healed set no longer references the dead node.
		for _, info := range a.ReplicaSets() {
			if info.Set.Primary == victim {
				t.Fatal("set still points at the dead primary")
			}
			for _, n := range info.Set.Replicas {
				if n == victim {
					t.Fatal("set still lists the dead node as a replica")
				}
			}
		}
		t.Logf("promoted %s -> %s", victim, newLoc)
	})
}

func TestReplicaSetSurvivesMemberCrash(t *testing.T) {
	replicaChaosWorld(t, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
		obj := replicatedCounter(t, a, p, w.Nodes()[1], readPolicy(2, replica.Strong))
		sets := a.ReplicaSets()
		member := sets[0].Set.Replicas[0]
		if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: member}); err != nil {
			t.Fatalf("inject crash: %v", err)
		}
		// Reads and writes keep working through the member loss.
		deadline := w.Sched().Now() + 20*time.Second
		for {
			if got, err := obj.SInvoke(p, "Get"); err != nil || got.(int) != 41 {
				t.Fatalf("read during member loss = %v, %v", got, err)
			}
			if _, err := obj.SInvoke(p, "Add", 0); err != nil {
				t.Fatalf("write during member loss: %v", err)
			}
			healed := true
			for _, info := range a.ReplicaSets() {
				for _, n := range info.Set.Replicas {
					if n == member {
						healed = false
					}
				}
			}
			if healed {
				break
			}
			if w.Sched().Now() > deadline {
				t.Fatal("set never healed after member crash")
			}
			p.Sleep(200 * time.Millisecond)
		}
	})
}

// TestPersistRestoreReplicated: a replicated object Stored and Loaded
// comes back replicated — the policy rides in the persist record and the
// set is re-materialized, not silently degraded to a single copy.
func TestPersistRestoreReplicated(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		obj := replicatedCounter(t, a, p, w.Nodes()[1], readPolicy(2, replica.Strong))
		key, err := obj.Store(p, "repl-counter")
		if err != nil {
			t.Fatalf("store: %v", err)
		}
		if err := obj.Free(p); err != nil {
			t.Fatal(err)
		}
		loaded, err := a.Load(p, key, nil, nil)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if got, err := loaded.SInvoke(p, "Get"); err != nil || got.(int) != 41 {
			t.Fatalf("loaded state = %v, %v", got, err)
		}
		ref, _ := loaded.Ref()
		var found *ReplicaSetInfo
		sets := a.ReplicaSets()
		for i := range sets {
			if sets[i].Ref.ID == ref.ID {
				found = &sets[i]
				break
			}
		}
		if found == nil {
			t.Fatal("loaded object is not replicated: policy did not survive persistence")
		}
		if len(found.Set.Replicas) != 2 || found.Set.Mode != replica.Strong {
			t.Fatalf("restored set = %+v, want 2 strong replicas", found.Set)
		}
	})
}
