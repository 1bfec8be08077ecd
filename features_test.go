package jsymphony_test

import (
	"testing"
	"time"

	"jsymphony"
)

func init() {
	jsymphony.RegisterClass("test.Registry", 1024, func() any { return &RegistryClass{} })
}

// RegistryClass plays a class with static state: its exported fields act
// as static variables, its methods as static methods.
type RegistryClass struct {
	Names []string
}

// Register appends a name and reports the new count.
func (r *RegistryClass) Register(name string) int {
	r.Names = append(r.Names, name)
	return len(r.Names)
}

// Count reports the number of registered names.
func (r *RegistryClass) Count() int { return len(r.Names) }

func TestStaticObjectsPublicAPI(t *testing.T) {
	env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.IdleProfile, 1, testEnvOpts())
	env.RunMain("", func(js *jsymphony.JS) {
		cb := js.NewCodebase()
		cb.Add("test.Registry")
		if err := cb.LoadNodes(js.Env().Nodes()...); err != nil {
			t.Fatal(err)
		}
		// The static instance is created on first resolution.
		st1, err := js.Static("test.Registry")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := st1.SInvoke("Register", "alpha"); err != nil || got.(int) != 1 {
			t.Fatalf("static register = %v, %v", got, err)
		}
		// A second resolution — same instance, so shared state.
		st2, err := js.Static("test.Registry")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := st2.SInvoke("Register", "beta"); got.(int) != 2 {
			t.Fatalf("static state not shared: %v", got)
		}
		// Async invocation through the static handle.
		h, err := st1.AInvoke("Count")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := h.Result(); err != nil || got.(int) != 2 {
			t.Fatalf("static ainvoke = %v, %v", got, err)
		}
	})
}

func TestWrapReceivedRef(t *testing.T) {
	env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.IdleProfile, 1, testEnvOpts())
	env.RunMain("", func(js *jsymphony.JS) {
		cb := js.NewCodebase()
		cb.Add("test.Accum")
		cb.LoadNodes(js.Env().Nodes()...)
		obj, err := js.NewObject("test.Accum", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		obj.SInvoke("Add", 4.0)
		ref, err := obj.Ref()
		if err != nil {
			t.Fatal(err)
		}
		// Wrap as if the ref came from another application.
		remote := js.Wrap(ref)
		if got, err := remote.SInvoke("Get"); err != nil || got.(float64) != 4.0 {
			t.Fatalf("wrapped ref call = %v, %v", got, err)
		}
		// Wrapped handles survive migration (Fig. 4 re-resolution).
		n, err := js.NewNamedNode(js.Env().Nodes()[3])
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Migrate(n, nil); err != nil {
			t.Fatal(err)
		}
		if got, err := remote.SInvoke("Add", 1.0); err != nil || got.(float64) != 5.0 {
			t.Fatalf("wrapped ref after migration = %v, %v", got, err)
		}
	})
}

func TestNewObjectNear(t *testing.T) {
	env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.IdleProfile, 1, testEnvOpts())
	env.RunMain("", func(js *jsymphony.JS) {
		cb := js.NewCodebase()
		cb.Add("test.Accum")
		cb.LoadNodes(js.Env().Nodes()...)
		a, err := js.NewObject("test.Accum", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := js.NewObjectNear("test.Accum", a, nil)
		if err != nil {
			t.Fatal(err)
		}
		la, _ := a.NodeName()
		lb, _ := b.NodeName()
		if la != lb {
			t.Fatalf("co-mapping failed: %s vs %s", la, lb)
		}
	})
}

func TestAttachUnknownNode(t *testing.T) {
	env := jsymphony.NewLocalEnv([]string{"only"}, testEnvOpts())
	env.Start()
	defer env.Shutdown()
	if _, err := env.World().Register("ghost"); err == nil {
		t.Fatal("registration on unknown node succeeded")
	}
}

func TestRecoveryPublicAPI(t *testing.T) {
	env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.IdleProfile, 1, testEnvOpts())
	env.RunMain("", func(js *jsymphony.JS) {
		cb := js.NewCodebase()
		cb.Add("test.Accum")
		cb.LoadNodes(js.Env().Nodes()...)

		// Architecture away from the directory host, recovery armed.
		constr := jsymphony.NewConstraints().MustSet(jsymphony.NodeName, "!=", js.Env().Nodes()[0])
		d, err := js.NewDomain([][]int{{3}}, constr)
		if err != nil {
			t.Fatal(err)
		}
		js.ActivateVA(d, constr, nil)
		js.EnableRecovery(200 * time.Millisecond)

		victim, err := d.Node(0, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := js.NewObject("test.Accum", victim, nil)
		if err != nil {
			t.Fatal(err)
		}
		obj.SInvoke("Add", 7.5)
		js.Sleep(600 * time.Millisecond) // one checkpoint at least

		m, _ := env.World().Fabric().ByName(victim.Name())
		m.Kill()

		deadline := js.Now() + 20*time.Second
		for {
			js.Sleep(300 * time.Millisecond)
			if loc, err := obj.NodeName(); err == nil && loc != victim.Name() {
				break
			}
			if js.Now() > deadline {
				t.Fatal("public-API recovery never happened")
			}
		}
		if got, err := obj.SInvoke("Get"); err != nil || got.(float64) != 7.5 {
			t.Fatalf("recovered state = %v, %v", got, err)
		}
	})
}
