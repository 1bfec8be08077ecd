package core

import (
	"testing"
	"time"

	"jsymphony/internal/sched"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
)

// TestTraceProtocolSequence asserts the event log records a whole object
// lifecycle in order: create → migrate → store → load-copy → free.
func TestTraceProtocolSequence(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		n1, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[1])
		n2, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[2])
		obj, err := a.NewObject(p, "Counter", n1, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := obj.Ref()
		obj.SInvoke(p, "Add", 1)
		if err := obj.Migrate(p, n2, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := obj.Store(p, "trace-key"); err != nil {
			t.Fatal(err)
		}
		cp, err := a.Load(p, "trace-key", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Free(p); err != nil {
			t.Fatal(err)
		}
		_ = cp

		forObject := func(app string, id uint64) (out []trace.Event) {
			for _, e := range w.Trace().Events() {
				if e.App == app && e.Obj == id {
					out = append(out, e)
				}
			}
			return out
		}
		all := forObject(ref.App, ref.ID)
		// The SInvoke above also lands in the log as an invocation event;
		// the lifecycle assertions below look past those.
		var invoked int
		evs := all[:0]
		var kinds []trace.Kind
		for _, e := range all {
			if e.Kind == trace.ObjInvoked {
				invoked++
				continue
			}
			evs = append(evs, e)
			kinds = append(kinds, e.Kind)
		}
		if invoked == 0 {
			t.Fatal("no obj.invoked event for the SInvoke")
		}
		want := []trace.Kind{trace.ObjCreated, trace.ObjMigrated, trace.ObjStored, trace.ObjFreed}
		if len(kinds) != len(want) {
			t.Fatalf("lifecycle events = %v, want %v", kinds, want)
		}
		for i := range want {
			if kinds[i] != want[i] {
				t.Fatalf("lifecycle events = %v, want %v", kinds, want)
			}
		}
		// Details carry the useful context.
		if evs[1].Detail != w.Nodes()[1]+" -> "+w.Nodes()[2] {
			t.Fatalf("migration detail = %q", evs[1].Detail)
		}
		// The loaded copy has its own created-by-load event.
		cpRef, _ := cp.Ref()
		cpEvs := forObject(cpRef.App, cpRef.ID)
		if len(cpEvs) == 0 || cpEvs[0].Kind != trace.ObjLoaded {
			t.Fatalf("copy events = %v", cpEvs)
		}
		// Registration was the very first event of the app.
		if regs := w.Trace().Filter(trace.AppRegistered); len(regs) == 0 {
			t.Fatal("no registration event")
		}
		// Codebase loads were recorded (simWorld loads on all nodes).
		if cbs := w.Trace().Filter(trace.CodebaseLoaded); len(cbs) < len(w.Nodes()) {
			t.Fatalf("codebase events = %d, want >= %d", len(cbs), len(w.Nodes()))
		}
	})
}

// TestTraceFailureEvents checks failures and takeovers land in the log
// via activated architectures.
func TestTraceFailureEvents(t *testing.T) {
	w := NewSimWorld(simSpecs(), simProfile(), 1, Options{NAS: testNAS(), Registry: testRegistry()})
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, _ := w.Register(w.Nodes()[0])
		defer a.Unregister(p)
		constr := constraintNotNode(w.Nodes()[0])
		d, err := virtarch.NewDomain(a.Allocator(p), [][]int{{3}}, constr)
		if err != nil {
			t.Fatal(err)
		}
		a.ActivateVA(d, constr, nil)
		p.Sleep(500 * time.Millisecond)
		victim := d.NodeNames()[0] // the cluster manager
		m, _ := w.Fabric().ByName(victim)
		m.Kill()
		p.Sleep(5 * time.Second)
		if evs := w.Trace().Filter(trace.NodeFailed); len(evs) == 0 {
			t.Fatal("no node-failure event traced")
		}
		if evs := w.Trace().Filter(trace.ManagerChanged); len(evs) == 0 {
			t.Fatal("no manager-takeover event traced")
		}
	})
}
