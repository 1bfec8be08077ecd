package core

import (
	"errors"
	"testing"
	"time"

	"jsymphony/internal/chaos"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
)

// testPolicy lets sync calls to a dead node fail fast (typed
// rmi.ErrTimeout) so the invoke loop can wait out detection + recovery.
func testPolicy() rmi.Policy {
	return rmi.Policy{
		AttemptTimeout: 300 * time.Millisecond,
		Retries:        3,
		Backoff:        50 * time.Millisecond,
		BackoffMax:     300 * time.Millisecond,
		Multiplier:     2,
	}
}

// recoverWorld builds a sim world with fast NAS periods, a retry
// policy, an armed empty chaos injector, recovery enabled, and the
// Counter class loaded everywhere.
func recoverWorld(t *testing.T, fn func(w *World, a *App, inj *chaos.Injector, p sched.Proc)) {
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
		a.EnableRecovery(200 * time.Millisecond)
		fn(w, a, inj, p)
	})
}

// pinCounter creates a Counter on the named node with value 41 and
// waits long enough for a checkpoint of that state to land.
func pinCounter(t *testing.T, a *App, p sched.Proc, node string) *Object {
	t.Helper()
	vn, err := virtarch.NewNamedNode(a.Allocator(p), node)
	if err != nil {
		t.Fatal(err)
	}
	// The not-home constraint also steers recovery placement: the tests
	// crash the recovered host again, which must never be the directory.
	obj, err := a.NewObject(p, "Counter", vn, constraintNotNode(a.world.Nodes()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.SInvoke(p, "Add", 41); err != nil {
		t.Fatal(err)
	}
	p.Sleep(500 * time.Millisecond) // > 2 checkpoint periods
	return obj
}

// awaitRelocation polls until the handle reports a live node other than
// the dead one.
func awaitRelocation(t *testing.T, w *World, p sched.Proc, obj *Object, deadNode string) string {
	t.Helper()
	deadline := w.Sched().Now() + 30*time.Second
	for {
		p.Sleep(200 * time.Millisecond)
		loc, err := obj.NodeName()
		if err == nil && loc != deadNode {
			return loc
		}
		if w.Sched().Now() > deadline {
			t.Fatalf("object never recovered off %s", deadNode)
		}
	}
}

// TestChaosCrashRecoverySameHandle is the detector path end to end: a
// chaos-scheduled crash (no activated architecture — the installation
// detector reports it), checkpointed state re-materialized elsewhere,
// and the original handle keeps working.
func TestChaosCrashRecoverySameHandle(t *testing.T) {
	recoverWorld(t, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
		victim := w.Nodes()[1]
		obj := pinCounter(t, a, p, victim)

		if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
			t.Fatalf("inject crash: %v", err)
		}
		loc := awaitRelocation(t, w, p, obj, victim)

		// Same handle, checkpointed state, updates continue.
		got, err := obj.SInvoke(p, "Get")
		if err != nil {
			t.Fatalf("invoke after recovery: %v", err)
		}
		if got.(int) != 41 {
			t.Fatalf("recovered state = %v, want 41", got)
		}
		if got, err := obj.SInvoke(p, "Add", 1); err != nil || got.(int) != 42 {
			t.Fatalf("post-recovery add = %v, %v", got, err)
		}
		if loc == victim {
			t.Fatalf("object still on dead node %s", loc)
		}

		// The fault, the detection, and the recovery are all on the record.
		for _, kind := range []trace.Kind{trace.ChaosFault, trace.NodeFailed, trace.ObjRecovered} {
			if len(w.Trace().Filter(kind)) == 0 {
				t.Errorf("no %s event traced", kind)
			}
		}
	})
}

// TestCrashAroundCheckpointRecoversLastComplete: updates after the last
// complete checkpoint are lost (and only those); checkpoint passes that
// race the dead node — the engine keeps running during the detection
// window and its best-effort store to the victim fails — neither wedge
// the engine nor corrupt the recovered state.
func TestCrashAroundCheckpointRecoversLastComplete(t *testing.T) {
	recoverWorld(t, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
		victim := w.Nodes()[1]
		obj := pinCounter(t, a, p, victim) // 41 checkpointed

		// An update the next checkpoint never sees: crash immediately,
		// well inside the 200ms checkpoint period.
		if got, err := obj.SInvoke(p, "Add", 10); err != nil || got.(int) != 51 {
			t.Fatalf("pre-crash add = %v, %v", got, err)
		}
		if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
			t.Fatalf("inject crash: %v", err)
		}
		awaitRelocation(t, w, p, obj, victim)

		got, err := obj.SInvoke(p, "Get")
		if err != nil {
			t.Fatalf("invoke after recovery: %v", err)
		}
		if got.(int) != 41 {
			t.Fatalf("recovered state = %v, want the last complete checkpoint (41)", got)
		}
		// The checkpoint engine survived the dead-node window: the
		// recovered object gets checkpointed again and survives a second
		// crash of its new host.
		if got, err := obj.SInvoke(p, "Add", 1); err != nil || got.(int) != 42 {
			t.Fatalf("post-recovery add = %v, %v", got, err)
		}
		// Generous wait: a pass that was mid-store when the victim died
		// burns its retry budget (~1.5s) before the next clean pass can
		// checkpoint the new state.
		p.Sleep(3 * time.Second)
		second, _ := obj.NodeName()
		if second == w.Nodes()[0] {
			t.Fatal("recovery ignored the not-home placement constraint")
		}
		if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: second}); err != nil {
			t.Fatalf("inject second crash: %v", err)
		}
		awaitRelocation(t, w, p, obj, second)
		if got, err := obj.SInvoke(p, "Get"); err != nil || got.(int) != 42 {
			t.Fatalf("second recovery = %v, %v (want 42)", got, err)
		}
	})
}

// TestCrashDuringMigrationRecovers: the host dies while an invocation
// is in flight and a migration is waiting for the object to quiesce.
// The migration may fail — its source vanished — but the handle must
// come back somewhere else with the checkpointed state.
func TestCrashDuringMigrationRecovers(t *testing.T) {
	recoverWorld(t, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
		victim := w.Nodes()[1]
		obj := pinCounter(t, a, p, victim) // 41 checkpointed

		// Keep the object busy so the migration is stuck waiting for
		// quiescence when the crash lands.
		w.Sched().Spawn("test.slowadd", func(sp sched.Proc) {
			_, _ = obj.SInvoke(sp, "SlowAdd", 400, 10)
		})
		migErr := make(chan error, 1)
		dst, err := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[2])
		if err != nil {
			t.Fatal(err)
		}
		w.Sched().Spawn("test.migrate", func(sp sched.Proc) {
			migErr <- obj.Migrate(sp, dst, nil)
		})
		p.Sleep(100 * time.Millisecond) // SlowAdd executing, Migrate waiting
		if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
			t.Fatalf("inject crash: %v", err)
		}

		awaitRelocation(t, w, p, obj, victim)
		got, err := obj.SInvoke(p, "Get")
		if err != nil {
			t.Fatalf("invoke after recovery: %v", err)
		}
		// The SlowAdd die with the host: the checkpointed 41 survives.
		if got.(int) != 41 {
			t.Fatalf("recovered state = %v, want 41", got)
		}
		// The migration resolves once its retry budget runs out against
		// the dead source (or it won the race and completed first).
		mdl := w.Sched().Now() + 30*time.Second
		for done := false; !done; {
			select {
			case err := <-migErr:
				if err == nil {
					t.Logf("migration completed before the crash")
				} else {
					t.Logf("migration failed as expected: %v", err)
				}
				done = true
			default:
				if w.Sched().Now() > mdl {
					t.Fatal("migration still blocked long after recovery")
				}
				p.Sleep(200 * time.Millisecond)
			}
		}
		if got, err := obj.SInvoke(p, "Add", 1); err != nil || got.(int) != 42 {
			t.Fatalf("post-recovery add = %v, %v", got, err)
		}
	})
}

// TestRMIPolicyTimeoutTyped: a call into a crashed node surfaces as the
// typed rmi.ErrTimeout through the whole core invoke path.
func TestRMIPolicyTimeoutTyped(t *testing.T) {
	recoverWorld(t, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
		victim := w.Nodes()[3]
		if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
			t.Fatal(err)
		}
		rt := w.MustRuntime(w.Nodes()[0])
		_, err := rt.Station().Call(p, victim, PubService, "loadCodebase", rmi.MustMarshal(codebaseReq{}), 2*time.Second)
		if !errors.Is(err, rmi.ErrTimeout) {
			t.Fatalf("call into crashed node = %v, want rmi.ErrTimeout", err)
		}
	})
}
