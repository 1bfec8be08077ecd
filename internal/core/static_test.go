package core

import (
	"testing"
	"time"

	"jsymphony/internal/params"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/virtarch"
)

func simSpecs() []simnet.MachineSpec { return simnet.PaperCluster() }
func simProfile() simnet.LoadProfile { return simnet.Idle }
func constraintNotNode(n string) *params.Constraints {
	return params.NewConstraints().MustSet(params.NodeName, "!=", n)
}

func TestStaticObjectSharedAcrossApps(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		// Two applications resolve the same class: one shared instance.
		b, err := w.Register(w.Nodes()[2])
		if err != nil {
			t.Fatal(err)
		}
		defer b.Unregister(p)

		refA, err := a.StaticRef(p, "Counter")
		if err != nil {
			t.Fatal(err)
		}
		refB, err := b.StaticRef(p, "Counter")
		if err != nil {
			t.Fatal(err)
		}
		if refA != refB {
			t.Fatalf("apps got different static instances: %+v vs %+v", refA, refB)
		}
		if refA.App != "static" || refA.Class != "Counter" {
			t.Fatalf("static ref malformed: %+v", refA)
		}

		// Static state is shared: increments from both apps accumulate.
		if res, err := a.rt.InvokeRef(p, refA, "Add", []any{2}); err != nil || res.(int) != 2 {
			t.Fatalf("app A add = %v, %v", res, err)
		}
		if res, err := b.rt.InvokeRef(p, refB, "Add", []any{3}); err != nil || res.(int) != 5 {
			t.Fatalf("app B add = %v, %v (static state not shared)", res, err)
		}
	})
}

func TestStaticUnknownClass(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		if _, err := a.StaticRef(p, "Ghost"); err == nil {
			t.Fatal("static of unknown class resolved")
		}
	})
}

func TestStaticNeedsLoadedClass(t *testing.T) {
	// The static instance can only be hosted on a node with the class
	// loaded; with no codebase anywhere, resolution fails.
	w := NewSimWorld(simSpecs(), simProfile(), 1, Options{NAS: testNAS(), Registry: testRegistry()})
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, _ := w.Register(w.Nodes()[0])
		defer a.Unregister(p)
		if _, err := a.StaticRef(p, "Counter"); err == nil {
			t.Fatal("static resolved without any loaded class")
		}
	})
}

func TestRecoveryAfterNodeFailure(t *testing.T) {
	w := NewSimWorld(simSpecs(), simProfile(), 1, Options{NAS: testNAS(), Registry: testRegistry()})
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, _ := w.Register(w.Nodes()[0])
		defer a.Unregister(p)
		cb := a.NewCodebase()
		cb.Add("Counter")
		cb.LoadNodes(p, w.Nodes()...)

		// Architecture excluding the home node (so the directory node
		// stays up), with recovery armed.
		constr := constraintNotNode(w.Nodes()[0])
		d, err := virtarch.NewDomain(a.Allocator(p), [][]int{{3}}, constr)
		if err != nil {
			t.Fatal(err)
		}
		a.ActivateVA(d, constr, nil)
		a.EnableRecovery(200 * time.Millisecond)
		if !a.RecoveryEnabled() {
			t.Fatal("recovery not armed")
		}

		// An object on a doomed architecture node.
		victimNode, _ := d.Node(0, 0, 1)
		obj, err := a.NewObject(p, "Counter", victimNode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obj.SInvoke(p, "Add", 41); err != nil {
			t.Fatal(err)
		}
		// Let at least one checkpoint land.
		p.Sleep(600 * time.Millisecond)

		// Kill the host.
		m, _ := w.Fabric().ByName(victimNode.Name())
		m.Kill()

		// Recovery triggers off the hierarchy's failure event; wait for
		// the object to come back somewhere else.
		deadline := w.Sched().Now() + 20*time.Second
		for {
			p.Sleep(300 * time.Millisecond)
			loc, err := obj.NodeName()
			if err == nil && loc != victimNode.Name() {
				break
			}
			if w.Sched().Now() > deadline {
				t.Fatal("object never recovered from the dead node")
			}
		}
		// The same handle works and the checkpointed state survived.
		got, err := obj.SInvoke(p, "Get")
		if err != nil {
			t.Fatalf("invoke after recovery: %v", err)
		}
		if got.(int) != 41 {
			t.Fatalf("recovered state = %v, want 41", got)
		}
		// Updates continue normally.
		if got, err := obj.SInvoke(p, "Add", 1); err != nil || got.(int) != 42 {
			t.Fatalf("post-recovery add = %v, %v", got, err)
		}
	})
}
