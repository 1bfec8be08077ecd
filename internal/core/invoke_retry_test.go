package core

import (
	"testing"
	"time"

	"jsymphony/internal/chaos"
	"jsymphony/internal/replica"
	"jsymphony/internal/sched"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
)

// retrySource issues one synchronous invocation the way a caller holds
// the object: through the application's own handle, or through its
// first-order Ref from a node outside the application.
type retrySource struct {
	name string
	// origin returns the node the call's span starts on.
	origin func(w *World, a *App) string
	call   func(w *World, p sched.Proc, obj *Object, method string, args ...any) (any, error)
}

var retrySources = []retrySource{
	{
		name:   "own",
		origin: func(w *World, a *App) string { return a.Home() },
		call: func(w *World, p sched.Proc, obj *Object, method string, args ...any) (any, error) {
			return obj.SInvoke(p, method, args...)
		},
	},
	{
		name:   "foreign",
		origin: func(w *World, a *App) string { return w.Nodes()[3] },
		call: func(w *World, p sched.Proc, obj *Object, method string, args ...any) (any, error) {
			ref, err := obj.Ref()
			if err != nil {
				return nil, err
			}
			return w.MustRuntime(w.Nodes()[3]).InvokeRef(p, ref, method, args)
		},
	},
}

// retryPin is what one retry-path row promises: the call's result, how
// many retry spans are cause-linked to its request span, and whether
// the request span carries retry time.
type retryPin struct {
	res     int
	retries int
	retry   bool
}

// TestInvokeRetryPaths pins the synchronous retry loop on every miss it
// retries, for both sources of a handle's location: the calling
// application's own table row, and a foreign Ref's cache re-resolved at
// the origin AppOA.
func TestInvokeRetryPaths(t *testing.T) {
	rows := []struct {
		name  string
		world func(*testing.T, func(*World, *App, *chaos.Injector, sched.Proc))
		// run sets the scene, warms the source with one call, and issues
		// the measured invocation through call.
		run          func(t *testing.T, w *World, a *App, inj *chaos.Injector, p sched.Proc, src retrySource) (*Object, string, time.Duration, any, error)
		own, foreign retryPin
	}{
		{
			name:  "busy mid-migration",
			world: replicaChaosWorld,
			run: func(t *testing.T, w *World, a *App, inj *chaos.Injector, p sched.Proc, src retrySource) (*Object, string, time.Duration, any, error) {
				obj := pinnedCounter(t, a, p, w.Nodes()[1], 7)
				warm(t, w, p, src, obj, "Get")
				// A slow method holds the object, so the migration waits
				// for quiescence and deflects new calls as busy.
				if _, err := obj.AInvoke(p, "SlowAdd", 300, 0); err != nil {
					t.Fatal(err)
				}
				p.Sleep(20 * time.Millisecond)
				dst, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[2])
				w.Sched().Spawn("test.migrate", func(sp sched.Proc) {
					if err := obj.Migrate(sp, dst, nil); err != nil {
						t.Errorf("migrate: %v", err)
					}
				})
				p.Sleep(20 * time.Millisecond)
				start := w.Sched().Now()
				res, err := src.call(w, p, obj, "Add", 1)
				return obj, "Add", start, res, err
			},
			own:     retryPin{res: 8, retries: 8, retry: true},
			foreign: retryPin{res: 8, retries: 8, retry: true},
		},
		{
			name:  "moved after migration",
			world: replicaChaosWorld,
			run: func(t *testing.T, w *World, a *App, inj *chaos.Injector, p sched.Proc, src retrySource) (*Object, string, time.Duration, any, error) {
				obj := pinnedCounter(t, a, p, w.Nodes()[1], 7)
				warm(t, w, p, src, obj, "Get")
				dst, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[2])
				if err := obj.Migrate(p, dst, nil); err != nil {
					t.Fatal(err)
				}
				start := w.Sched().Now()
				res, err := src.call(w, p, obj, "Add", 1)
				return obj, "Add", start, res, err
			},
			own:     retryPin{res: 8, retries: 0, retry: false},
			foreign: retryPin{res: 8, retries: 1, retry: true},
		},
		{
			name:  "strong replica, lease expired, every replica failed",
			world: replicaChaosWorld,
			run: func(t *testing.T, w *World, a *App, inj *chaos.Injector, p sched.Proc, src retrySource) (*Object, string, time.Duration, any, error) {
				victim := w.Nodes()[1]
				obj := replicatedCounter(t, a, p, victim, readPolicy(2, replica.Strong))
				// A write reaches the primary, which tells a foreign
				// caller its replica set.
				warm(t, w, p, src, obj, "Add", 0)
				if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
					t.Fatal(err)
				}
				// Past the lease, before failure detection: every replica
				// must renew from the dead primary before it can serve.
				p.Sleep(replica.DefaultLease + 50*time.Millisecond)
				start := w.Sched().Now()
				res, err := src.call(w, p, obj, "Get")
				return obj, "Get", start, res, err
			},
			own:     retryPin{res: 41, retries: 2, retry: true},
			foreign: retryPin{res: 41, retries: 2, retry: true},
		},
		{
			name:  "crashed host recovered",
			world: recoverWorld,
			run: func(t *testing.T, w *World, a *App, inj *chaos.Injector, p sched.Proc, src retrySource) (*Object, string, time.Duration, any, error) {
				victim := w.Nodes()[1]
				obj := pinCounter(t, a, p, victim)
				warm(t, w, p, src, obj, "Get")
				if err := inj.Inject(chaos.Fault{Kind: chaos.Crash, Node: victim}); err != nil {
					t.Fatal(err)
				}
				start := w.Sched().Now()
				res, err := src.call(w, p, obj, "Get")
				return obj, "Get", start, res, err
			},
			own:     retryPin{res: 41, retries: 1, retry: true},
			foreign: retryPin{res: 41, retries: 1, retry: true},
		},
	}
	for _, row := range rows {
		for _, src := range retrySources {
			row, src := row, src
			want := row.own
			if src.name == "foreign" {
				want = row.foreign
			}
			t.Run(row.name+"/"+src.name, func(t *testing.T) {
				row.world(t, func(w *World, a *App, inj *chaos.Injector, p sched.Proc) {
					obj, method, start, res, err := row.run(t, w, a, inj, p, src)
					if err != nil {
						t.Fatalf("%s: %v", method, err)
					}
					got := retryPin{res: res.(int)}
					req := requestSpan(t, w, obj, src.origin(w, a), method, start)
					got.retry = req.Retry > 0
					for _, s := range w.Spans().Spans() {
						if s.Kind == trace.SpanRetry && s.Cause == req.ID {
							got.retries++
						}
					}
					if got != want {
						t.Fatalf("got %+v, want %+v", got, want)
					}
				})
			})
		}
	}
}

// pinnedCounter creates a Counter on node holding v.
func pinnedCounter(t *testing.T, a *App, p sched.Proc, node string, v int) *Object {
	t.Helper()
	vn, err := virtarch.NewNamedNode(a.Allocator(p), node)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := a.NewObject(p, "Counter", vn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.SInvoke(p, "Add", v); err != nil {
		t.Fatal(err)
	}
	return obj
}

// warm makes one successful call through src, so a foreign caller has
// the object's location (and replica set) cached before the scene.
func warm(t *testing.T, w *World, p sched.Proc, src retrySource, obj *Object, method string, args ...any) {
	t.Helper()
	if _, err := src.call(w, p, obj, method, args...); err != nil {
		t.Fatalf("warm-up %s: %v", method, err)
	}
}

// requestSpan finds the request span of the measured call: the one its
// caller opened on origin at start.
func requestSpan(t *testing.T, w *World, obj *Object, origin, method string, start time.Duration) trace.Span {
	t.Helper()
	ref, err := obj.Ref()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range w.Spans().ForObject(ref.App, ref.ID) {
		if s.Kind == trace.SpanSync && s.Origin == origin && s.Method == method && s.Start == start {
			return s
		}
	}
	t.Fatalf("no %s span opened on %s at %v", method, origin, start)
	return trace.Span{}
}
