package core

import (
	"testing"
	"time"

	"jsymphony/internal/params"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/virtarch"
)

func TestExplicitMigrationToNode(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		src := w.Nodes()[1]
		dst := w.Nodes()[2]
		srcNode, _ := virtarch.NewNamedNode(a.Allocator(p), src)
		obj, err := a.NewObject(p, "Counter", srcNode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obj.SInvoke(p, "Add", 42); err != nil {
			t.Fatal(err)
		}
		dstNode, _ := virtarch.NewNamedNode(a.Allocator(p), dst)
		if err := obj.Migrate(p, dstNode, nil); err != nil {
			t.Fatal(err)
		}
		if loc, _ := obj.NodeName(); loc != dst {
			t.Fatalf("object on %s after migration, want %s", loc, dst)
		}
		// State survived the move (§4.6 + layout serialization).
		got, err := obj.SInvoke(p, "Get")
		if err != nil || got.(int) != 42 {
			t.Fatalf("state after migration = %v, %v", got, err)
		}
		// Physically gone from the source, present at the destination.
		if w.MustRuntime(src).Objects() != 0 {
			t.Fatal("object still on source node")
		}
		if w.MustRuntime(dst).Objects() != 1 {
			t.Fatal("object missing on destination node")
		}
		// The context sees the new node.
		if whre, _ := obj.SInvoke(p, "Where"); whre.(string) != dst {
			t.Fatalf("Where = %v", whre)
		}
	})
}

func TestMigrationToSameNodeIsNoop(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		node, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[1])
		obj, _ := a.NewObject(p, "Counter", node, nil)
		before := w.MustRuntime(a.Home()).Station().Stats().CallsSent
		if err := obj.Migrate(p, node, nil); err != nil {
			t.Fatal(err)
		}
		after := w.MustRuntime(a.Home()).Station().Stats().CallsSent
		if after != before {
			t.Fatal("same-node migration crossed the wire")
		}
	})
}

func TestMigrationWithinComponent(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		cl, err := virtarch.NewCluster(a.Allocator(p), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		n0, _ := cl.Node(0)
		obj, err := a.NewObject(p, "Counter", n0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Migrate(p, cl, nil); err != nil {
			t.Fatal(err)
		}
		loc, _ := obj.NodeName()
		if loc == n0.Name() {
			t.Fatal("migrate(cluster) stayed put")
		}
		member := false
		for _, n := range cl.NodeNames() {
			if n == loc {
				member = true
			}
		}
		if !member {
			t.Fatalf("migrated outside the cluster: %s", loc)
		}
	})
}

func TestMigrationHonorsConstraints(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		// Start on a slow-segment node, demand a fast one.
		var slow string
		for _, m := range w.Fabric().Machines() {
			if m.Spec().LinkMbps < 100 {
				slow = m.Name()
				break
			}
		}
		slowNode, _ := virtarch.NewNamedNode(a.Allocator(p), slow)
		obj, err := a.NewObject(p, "Counter", slowNode, nil)
		if err != nil {
			t.Fatal(err)
		}
		constr := params.NewConstraints().MustSet(params.PeakBandwd, ">=", 100)
		if err := obj.Migrate(p, nil, constr); err != nil {
			t.Fatal(err)
		}
		loc, _ := obj.NodeName()
		m, _ := w.Fabric().ByName(loc)
		if m.Spec().LinkMbps < 100 {
			t.Fatalf("migrated to slow node %s", loc)
		}
	})
}

func TestMigrationWaitsForInFlightMethods(t *testing.T) {
	// The paper §4.6: "JRS verifies before object migration, whether any
	// of its methods are currently being executed.  If so, migration is
	// delayed until all unfinished method invocations have completed."
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		src, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[1])
		dst, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[2])
		obj, err := a.NewObject(p, "Counter", src, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Launch a 200ms method, then migrate while it runs.
		h, err := obj.AInvoke(p, "SlowAdd", 200, 5)
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(20 * time.Millisecond) // let the method start
		start := w.Sched().Now()
		if err := obj.Migrate(p, dst, nil); err != nil {
			t.Fatal(err)
		}
		if waited := w.Sched().Now() - start; waited < 100*time.Millisecond {
			t.Fatalf("migration returned after %v; must wait for the in-flight method", waited)
		}
		// The in-flight result was not lost and the state moved intact.
		if res, err := h.Result(p); err != nil || res.(int) != 5 {
			t.Fatalf("in-flight result = %v, %v", res, err)
		}
		if got, _ := obj.SInvoke(p, "Get"); got.(int) != 5 {
			t.Fatalf("state after delayed migration = %v", got)
		}
	})
}

func TestStaleRefReResolved(t *testing.T) {
	// Fig. 4: an invocation through a first-order ref that still points
	// at the old host must transparently re-resolve via the origin
	// AppOA.
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		src, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[1])
		obj, err := a.NewObject(p, "Counter", src, nil)
		if err != nil {
			t.Fatal(err)
		}
		obj.SInvoke(p, "Add", 7)
		ref, _ := obj.Ref()
		// A third node invokes through the ref before and after the
		// object moves; the ref itself never changes.
		other := w.MustRuntime(w.Nodes()[3])
		if res, err := other.InvokeRef(p, ref, "Get", nil); err != nil || res.(int) != 7 {
			t.Fatalf("pre-migration ref call = %v, %v", res, err)
		}
		dst, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[4])
		if err := obj.Migrate(p, dst, nil); err != nil {
			t.Fatal(err)
		}
		res, err := other.InvokeRef(p, ref, "Add", []any{3})
		if err != nil || res.(int) != 10 {
			t.Fatalf("post-migration ref call = %v, %v", res, err)
		}
	})
}

func TestMigrationUnderFire(t *testing.T) {
	// Invocations racing a migration must all land exactly once.
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		src, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[1])
		obj, err := a.NewObject(p, "Counter", src, nil)
		if err != nil {
			t.Fatal(err)
		}
		const n = 20
		done := w.Sched().NewQueue("done")
		for i := 0; i < n; i++ {
			i := i
			w.Sched().Spawn("fire", func(wp sched.Proc) {
				wp.Sleep(time.Duration(i) * 5 * time.Millisecond)
				_, err := obj.SInvoke(wp, "Add", 1)
				done.Put(err, 0)
			})
		}
		p.Sleep(25 * time.Millisecond)
		dst, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[2])
		if err := obj.Migrate(p, dst, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			v, _ := p.Recv(done)
			if v != nil {
				t.Fatalf("racing invocation failed: %v", v)
			}
		}
		got, err := obj.SInvoke(p, "Get")
		if err != nil || got.(int) != n {
			t.Fatalf("lost updates across migration: %v, %v", got, err)
		}
	})
}

func TestMigrationNotStarvedByLocalCalls(t *testing.T) {
	// An object co-located with its caller receives back-to-back local
	// invocations with zero virtual-time gaps; the migration-wanted gate
	// must still let a migration through (callers are deflected briefly
	// and then follow the object to its new home).
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		home, _ := virtarch.NewNamedNode(a.Allocator(p), a.Home())
		obj, err := a.NewObject(p, "Counter", home, nil)
		if err != nil {
			t.Fatal(err)
		}
		const rounds = 40
		done := w.Sched().NewQueue("done")
		w.Sched().Spawn("hammer", func(wp sched.Proc) {
			for i := 0; i < rounds; i++ {
				if _, err := obj.SInvoke(wp, "Add", 1); err != nil {
					done.Put(err, 0)
					return
				}
			}
			done.Put(nil, 0)
		})
		p.Sleep(5 * time.Millisecond)
		dst, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[2])
		start := w.Sched().Now()
		if err := obj.Migrate(p, dst, nil); err != nil {
			t.Fatalf("migrate under local fire: %v", err)
		}
		if took := w.Sched().Now() - start; took > 5*time.Second {
			t.Fatalf("migration starved for %v", took)
		}
		if v, ok := p.RecvTimeout(done, 30*time.Second); !ok || v != nil {
			t.Fatalf("hammer failed: %v", v)
		}
		if loc, _ := obj.NodeName(); loc != dst.Name() {
			t.Fatalf("object on %s", loc)
		}
		if got, _ := obj.SInvoke(p, "Get"); got.(int) != rounds {
			t.Fatalf("lost updates: %v of %d", got, rounds)
		}
	})
}

func TestAutomaticMigration(t *testing.T) {
	// §5.2: when a node stops satisfying the architecture constraints,
	// the app's objects there are migrated to a satisfying node,
	// preferring the same cluster.  We drive it with the day/night
	// machinery: constraints demand a fast-segment node; the object
	// starts on one, then we kill its bandwidth by moving it... instead,
	// we use a node-name constraint flip: constrain to "not rachel",
	// place on rachel manually, and let the engine evacuate.
	w := NewSimWorld(simnet.PaperCluster(), simnet.Idle, 1, Options{
		NAS:      testNAS(),
		Registry: testRegistry(),
	})
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, _ := w.Register(w.Nodes()[0])
		defer a.Unregister(p)
		cb := a.NewCodebase()
		cb.Add("Counter")
		cb.LoadNodes(p, w.Nodes()...)

		constr := params.NewConstraints().MustSet(params.NodeName, "!=", "rachel")
		d, err := virtarch.NewDomain(a.Allocator(p), [][]int{{3}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		a.ActivateVA(d, constr, nil)
		// Force the object onto rachel if it is in the domain; otherwise
		// add it.  rachel is the second Ultra 10/440, so it is among the
		// first allocated nodes.
		inDomain := false
		for _, n := range d.NodeNames() {
			if n == "rachel" {
				inDomain = true
			}
		}
		if !inDomain {
			t.Skip("allocation changed; rachel not in domain")
		}
		rachel, _ := virtarch.NewNamedNode(a.Allocator(p), "rachel")
		obj, err := a.NewObject(p, "Counter", rachel, nil)
		if err != nil {
			t.Fatal(err)
		}
		obj.SInvoke(p, "Add", 11)
		w.SetAutoMigration(100 * time.Millisecond)
		deadline := w.Sched().Now() + 5*time.Second
		for {
			p.Sleep(100 * time.Millisecond)
			loc, _ := obj.NodeName()
			if loc != "rachel" {
				// Locality rule: the refuge must be inside the domain.
				member := false
				for _, n := range d.NodeNames() {
					if n == loc {
						member = true
					}
				}
				if !member {
					t.Fatalf("evacuated outside the architecture: %s", loc)
				}
				break
			}
			if w.Sched().Now() > deadline {
				t.Fatal("automatic migration never evacuated the object")
			}
		}
		if got, _ := obj.SInvoke(p, "Get"); got.(int) != 11 {
			t.Fatal("state lost in automatic migration")
		}
		w.SetAutoMigration(0)
	})
}

func TestPersistence(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		obj, err := a.NewObject(p, "Counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		obj.SInvoke(p, "Add", 33)
		obj.SInvoke(p, "SetLabel", "persisted")
		key, err := obj.Store(p, "my-counter")
		if err != nil || key != "my-counter" {
			t.Fatalf("Store = %q, %v", key, err)
		}
		// The original keeps working after a store.
		if got, _ := obj.SInvoke(p, "Add", 1); got.(int) != 34 {
			t.Fatal("original broken after store")
		}
		// Load materializes an independent copy with the stored state.
		copy1, err := a.Load(p, "my-counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := copy1.SInvoke(p, "Get"); got.(int) != 33 {
			t.Fatalf("loaded state = %v", got)
		}
		if lbl, _ := copy1.SInvoke(p, "Where"); lbl.(string) == "" {
			t.Fatal("loaded object has no context")
		}
		// Generated keys are unique and retrievable.
		k1, err := obj.Store(p, "")
		if err != nil || k1 == "" {
			t.Fatalf("generated key: %q, %v", k1, err)
		}
		if _, err := a.Load(p, k1, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Load(p, "no-such-key", nil, nil); err == nil {
			t.Fatal("load of unknown key succeeded")
		}
	})
}

func TestFileStorageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := PersistRecord{Class: "Counter", State: []byte{1, 2, 3}}
	if err := fs.Put("k/ey:1", rec); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get("k/ey:1")
	if err != nil || got.Class != "Counter" || len(got.State) != 3 {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	keys, err := fs.Keys()
	if err != nil || len(keys) != 1 {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
	if err := fs.Delete("k/ey:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("k/ey:1"); err == nil {
		t.Fatal("Get after Delete succeeded")
	}
	if err := fs.Delete("k/ey:1"); err != nil {
		t.Fatalf("idempotent delete: %v", err)
	}
}

func TestMemStorage(t *testing.T) {
	ms := NewMemStorage()
	if err := ms.Put("a", PersistRecord{Class: "C"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Get("b"); err == nil {
		t.Fatal("ghost record")
	}
	keys, _ := ms.Keys()
	if len(keys) != 1 || keys[0] != "a" {
		t.Fatalf("Keys = %v", keys)
	}
	ms.Delete("a")
	if _, err := ms.Get("a"); err == nil {
		t.Fatal("delete failed")
	}
}
