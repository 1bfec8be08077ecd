package kv

import (
	"testing"

	"jsymphony"
)

func TestStoreLocalLifecycle(t *testing.T) {
	s := &Store{}
	ctx := &jsymphony.Ctx{}
	s.Init(0)
	s.Put(ctx, "a", 1)
	if got := s.Add(ctx, "a", 2); got != 3 {
		t.Fatalf("Add = %d, want 3", got)
	}
	s.Add(ctx, "b", 5) // Add also creates
	if got := s.Get(ctx, "a"); got != 3 {
		t.Fatalf("Get = %d, want 3", got)
	}
	if got := s.Sum(ctx); got != 8 {
		t.Fatalf("Sum = %d, want 8", got)
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	// Put on a zero Store (a decoded replica instance: an empty map
	// decodes as nil) must not panic.
	z := &Store{}
	z.Put(ctx, "x", 1)
	if z.Add(ctx, "x", 1) != 2 {
		t.Fatal("zero-value store broken")
	}
}

// TestReplicatedStoreEndToEnd drives the intended deployment: one Store
// replicated across a simulated cluster, one Reader per node issuing
// reads from its own origin, writes through the primary staying exact.
func TestReplicatedStoreEndToEnd(t *testing.T) {
	env := jsymphony.NewSimEnv(
		jsymphony.UniformCluster(jsymphony.Ultra10_300, 5),
		jsymphony.IdleProfile, 1, jsymphony.EnvOptions{})
	env.RunMain("", func(js *jsymphony.JS) {
		js.Sleep(500 * 1e6) // let the directory populate (500ms)
		cb := js.NewCodebase()
		if err := cb.Add(StoreClass); err != nil {
			t.Fatal(err)
		}
		if err := cb.Add(ReaderClass); err != nil {
			t.Fatal(err)
		}
		nodes := env.Nodes()
		if err := cb.LoadNodes(nodes...); err != nil {
			t.Fatal(err)
		}
		store, err := js.NewObject(StoreClass, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.SInvoke("Init", 0.0); err != nil {
			t.Fatal(err)
		}
		if _, err := store.SInvoke("Put", "hot", 7); err != nil {
			t.Fatal(err)
		}
		if err := store.Replicate(jsymphony.ReplicaPolicy{
			N: 2, Mode: jsymphony.ReplicaStrong, Reads: ReadMethods(),
		}); err != nil {
			t.Fatalf("replicate: %v", err)
		}
		ref, _ := store.Ref()
		for i, n := range nodes {
			vn, err := js.NewNamedNode(n)
			if err != nil {
				t.Fatal(err)
			}
			reader, err := js.NewObject(ReaderClass, vn, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reader.SInvoke("Run", ref, "hot", 4)
			if err != nil {
				t.Fatalf("reader %d: %v", i, err)
			}
			rep := got.(ReadReport)
			if rep.Node != n || rep.Sum != 4*7 {
				t.Fatalf("reader on %s: %+v", n, rep)
			}
		}
		// A strong write is visible to every subsequent read.
		if got, err := store.SInvoke("Add", "hot", 1); err != nil || got.(int) != 8 {
			t.Fatalf("write = %v, %v", got, err)
		}
		if got, err := store.SInvoke("Get", "hot"); err != nil || got.(int) != 8 {
			t.Fatalf("read after write = %v, %v", got, err)
		}
		if hits := env.World().Metrics().Counter("js_replica_read_hits_total").Value(); hits == 0 {
			t.Fatal("no read was served by a replica")
		}
	})
}
