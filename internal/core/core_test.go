package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jsymphony/internal/codebase"
	"jsymphony/internal/nas"
	"jsymphony/internal/params"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/vclock"
	"jsymphony/internal/virtarch"
)

// Counter is the workhorse test class.
type Counter struct {
	N     int
	Label string
}

func (c *Counter) Add(x int) int     { c.N += x; return c.N }
func (c *Counter) Get() int          { return c.N }
func (c *Counter) SetLabel(s string) { c.Label = s }
func (c *Counter) Boom() error       { return errors.New("counter exploded") }

// Pipe returns a value the codec cannot put on the wire.
func (c *Counter) Pipe() chan int { return make(chan int) }

// Where reports the hosting node via the execution context.
func (c *Counter) Where(ctx *Ctx) string { return ctx.Node() }

// SlowAdd sleeps before adding, to exercise in-flight-method rules.
func (c *Counter) SlowAdd(ctx *Ctx, ms int, x int) int {
	ctx.P.Sleep(time.Duration(ms) * time.Millisecond)
	c.N += x
	return c.N
}

// CallOther invokes Add on another object through its first-order ref.
func (c *Counter) CallOther(ctx *Ctx, other Ref, x int) (int, error) {
	res, err := ctx.Invoke(other, "Add", []any{x})
	if err != nil {
		return 0, err
	}
	return res.(int), nil
}

// Table is the shardable test class: a keyed map implementing the
// shard-group handoff trio (Keys/Extract/Install).
type Table struct {
	Data map[string]int
}

func (t *Table) Put(k string, v int) {
	if t.Data == nil {
		t.Data = make(map[string]int)
	}
	t.Data[k] = v
}

func (t *Table) Get(k string) int { return t.Data[k] }
func (t *Table) Len() int         { return len(t.Data) }

// SlowGet stalls before reading, so concurrent identical reads overlap
// and exercise the shard router's singleflight path.
func (t *Table) SlowGet(ctx *Ctx, k string) int {
	ctx.P.Sleep(20 * time.Millisecond)
	return t.Data[k]
}

// SlowJoin is a stalled two-argument read whose result names both
// arguments, so a reader handed another call's result notices.
func (t *Table) SlowJoin(ctx *Ctx, a, b string) string {
	ctx.P.Sleep(20 * time.Millisecond)
	return a + "|" + b
}

// tableInits is how many more InitBudgeted calls succeed; the shard
// group failure tests set it.
var tableInits atomic.Int32

// InitBudgeted fails once tableInits is spent.
func (t *Table) InitBudgeted() error {
	if tableInits.Add(-1) < 0 {
		return errors.New("init budget spent")
	}
	return nil
}

func (t *Table) Keys() []string {
	out := make([]string, 0, len(t.Data))
	for k := range t.Data {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (t *Table) Extract(keys []string) map[string]int {
	out := make(map[string]int, len(keys))
	for _, k := range keys {
		if v, ok := t.Data[k]; ok {
			out[k] = v
			delete(t.Data, k)
		}
	}
	return out
}

func (t *Table) Install(data map[string]int) {
	if t.Data == nil {
		t.Data = make(map[string]int)
	}
	for k, v := range data {
		t.Data[k] = v
	}
}

// testRegistry builds a fresh registry so tests do not pollute Default.
func testRegistry() *codebase.Registry {
	r := codebase.NewRegistry()
	r.Register("Counter", 4096, func() any { return &Counter{} })
	r.Register("Heavy", 1<<20, func() any { return &Counter{} })
	r.Register("Table", 4096, func() any { return &Table{} })
	return r
}

func testNAS() nas.Config {
	return nas.Config{
		MonitorPeriod: 150 * time.Millisecond,
		FailTimeout:   600 * time.Millisecond,
		CallTimeout:   400 * time.Millisecond,
	}
}

// simWorld builds a started simulated paper-cluster world and runs fn on
// the main proc with an app registered on a mid-speed node, after
// loading the Counter class everywhere.
func simWorld(t *testing.T, fn func(w *World, a *App, p sched.Proc)) {
	t.Helper()
	w := NewSimWorld(simnet.PaperCluster(), simnet.Idle, 1, Options{
		NAS:      testNAS(),
		Registry: testRegistry(),
	})
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond) // let agents report in
		a, err := w.Register(w.Nodes()[0])
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		cb := a.NewCodebase()
		if err := cb.Add("Counter"); err != nil {
			t.Fatal(err)
		}
		if err := cb.LoadNodes(p, w.Nodes()...); err != nil {
			t.Fatal(err)
		}
		fn(w, a, p)
		a.Unregister(p)
	})
}

func TestRegisterUnregister(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		if a.ID() == "" || a.Home() != w.Nodes()[0] {
			t.Fatalf("app identity wrong: %q on %q", a.ID(), a.Home())
		}
		obj, err := a.NewObject(p, "Counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		loc, _ := obj.NodeName()
		rt := w.MustRuntime(loc)
		if rt.Objects() != 1 {
			t.Fatalf("host has %d objects", rt.Objects())
		}
		a.Unregister(p)
		// Unregister frees all objects.
		if rt.Objects() != 0 {
			t.Fatalf("unregister left %d objects", rt.Objects())
		}
		if _, err := a.NewObject(p, "Counter", nil, nil); err == nil {
			t.Fatal("NewObject on unregistered app succeeded")
		}
		a.Unregister(p) // idempotent
	})
}

func TestCreateInvokeState(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		obj, err := a.NewObject(p, "Counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := obj.SInvoke(p, "Add", 5); err != nil || got.(int) != 5 {
			t.Fatalf("Add = %v, %v", got, err)
		}
		if got, err := obj.SInvoke(p, "Add", 7); err != nil || got.(int) != 12 {
			t.Fatalf("state lost: %v, %v", got, err)
		}
		if got, err := obj.SInvoke(p, "Get"); err != nil || got.(int) != 12 {
			t.Fatalf("Get = %v, %v", got, err)
		}
		if _, err := obj.SInvoke(p, "Boom"); err == nil || !strings.Contains(err.Error(), "exploded") {
			t.Fatalf("Boom err = %v", err)
		}
		if _, err := obj.SInvoke(p, "NoSuchMethod"); err == nil {
			t.Fatal("missing method accepted")
		}
		if ref, err := obj.Ref(); err != nil || ref.Class != "Counter" {
			t.Fatalf("Ref = %+v, %v, want class Counter", ref, err)
		}
	})
}

func TestPlacementSpecificNode(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		target := w.Nodes()[5]
		node, err := virtarch.NewNamedNode(a.Allocator(p), target)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := a.NewObject(p, "Counter", node, nil)
		if err != nil {
			t.Fatal(err)
		}
		if loc, _ := obj.NodeName(); loc != target {
			t.Fatalf("object on %s, want %s", loc, target)
		}
		// The execution context agrees.
		got, err := obj.SInvoke(p, "Where")
		if err != nil || got.(string) != target {
			t.Fatalf("Where = %v, %v", got, err)
		}
	})
}

func TestPlacementWithinCluster(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		cl, err := virtarch.NewCluster(a.Allocator(p), 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		member := map[string]bool{}
		for _, n := range cl.NodeNames() {
			member[n] = true
		}
		for i := 0; i < 3; i++ {
			obj, err := a.NewObject(p, "Counter", cl, nil)
			if err != nil {
				t.Fatal(err)
			}
			if loc, _ := obj.NodeName(); !member[loc] {
				t.Fatalf("object %d placed outside cluster: %s", i, loc)
			}
		}
		cl.Free()
	})
}

func TestPlacementConstraints(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		constr := params.NewConstraints().MustSet(params.PeakBandwd, ">=", 100)
		obj, err := a.NewObject(p, "Counter", nil, constr)
		if err != nil {
			t.Fatal(err)
		}
		loc, _ := obj.NodeName()
		m, _ := w.Fabric().ByName(loc)
		if m.Spec().LinkMbps < 100 {
			t.Fatalf("constraint violated: placed on %s (%v Mbit)", loc, m.Spec().LinkMbps)
		}
	})
}

func TestColocation(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		obj1, err := a.NewObject(p, "Counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		n1, err := obj1.Node(p)
		if err != nil {
			t.Fatal(err)
		}
		obj2, err := a.NewObject(p, "Counter", n1, nil)
		if err != nil {
			t.Fatal(err)
		}
		l1, _ := obj1.NodeName()
		l2, _ := obj2.NodeName()
		if l1 != l2 {
			t.Fatalf("co-location failed: %s vs %s", l1, l2)
		}
	})
}

func TestClassNotLoaded(t *testing.T) {
	w := NewSimWorld(simnet.PaperCluster(), simnet.Idle, 1, Options{
		NAS:      testNAS(),
		Registry: testRegistry(),
	})
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, _ := w.Register(w.Nodes()[0])
		defer a.Unregister(p)
		// No codebase loaded anywhere: creation must fail like a
		// ClassNotFoundException.
		if _, err := a.NewObject(p, "Counter", nil, nil); err == nil {
			t.Fatal("creation without loaded class succeeded")
		}
		// Load onto exactly one node and pin creation there.
		target := w.Nodes()[3]
		cb := a.NewCodebase()
		cb.Add("Counter")
		if err := cb.LoadNodes(p, target); err != nil {
			t.Fatal(err)
		}
		node, _ := virtarch.NewNamedNode(a.Allocator(p), target)
		obj, err := a.NewObject(p, "Counter", node, nil)
		if err != nil {
			t.Fatalf("creation on loaded node: %v", err)
		}
		if loc, _ := obj.NodeName(); loc != target {
			t.Fatalf("object on %s", loc)
		}
		// Unknown classes are rejected before any wire traffic.
		if _, err := a.NewObject(p, "Ghost", nil, nil); err == nil {
			t.Fatal("unknown class accepted")
		}
	})
}

func TestAInvoke(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		obj, err := a.NewObject(p, "Counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := obj.AInvoke(p, "SlowAdd", 50, 3)
		if err != nil {
			t.Fatal(err)
		}
		if h.IsReady() {
			t.Fatal("handle ready before the method could have finished")
		}
		start := w.Sched().Now()
		res, err := h.Result(p)
		if err != nil || res.(int) != 3 {
			t.Fatalf("Result = %v, %v", res, err)
		}
		if elapsed := w.Sched().Now() - start; elapsed < 40*time.Millisecond {
			t.Fatalf("result arrived after %v, want >= ~50ms", elapsed)
		}
		if !h.IsReady() {
			t.Fatal("handle not ready after Result")
		}
		// Result is repeatable.
		if res2, _ := h.Result(p); res2.(int) != 3 {
			t.Fatal("second Result differs")
		}
	})
}

func TestAInvokeParallelism(t *testing.T) {
	// N async invocations of a 100ms method on N different nodes must
	// take ~100ms of virtual time, not N*100ms — the whole point of
	// ainvoke (§4.5: "commonly employed to parallelize computations").
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		const n = 4
		var handles []*Handle
		start := w.Sched().Now()
		for i := 0; i < n; i++ {
			node, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[i])
			obj, err := a.NewObject(p, "Counter", node, nil)
			if err != nil {
				t.Fatal(err)
			}
			h, err := obj.AInvoke(p, "SlowAdd", 100, 1)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			if _, err := h.Result(p); err != nil {
				t.Fatal(err)
			}
		}
		elapsed := w.Sched().Now() - start
		if elapsed > 250*time.Millisecond {
			t.Fatalf("parallel ainvoke took %v, want ~100-200ms", elapsed)
		}
	})
}

// TestAInvokeHandleManyWaiters: procs blocked in Result on one handle
// all get its one outcome, result and error alike: the first to wake
// takes the completion's token and each passes it on to the next (the
// cascade Put).  A Result after the fact gets it too, and IsReady turns
// true only once the completion is delivered.  Both schedulers.
func TestAInvokeHandleManyWaiters(t *testing.T) {
	const waiters = 5
	boom := errors.New("boom")
	type outcome struct {
		res any
		err error
	}
	run := func(t *testing.T, s sched.Sched, p sched.Proc) {
		started, release, out := s.NewQueue("started"), s.NewQueue("release"), s.NewQueue("outcomes")
		h := ainvoke(s, func(q sched.Proc) (any, error) {
			q.Recv(release)
			return "outcome", boom
		})
		for i := 0; i < waiters; i++ {
			s.Spawn("waiter", func(q sched.Proc) {
				started.Put(true, 0)
				res, err := h.Result(q)
				out.Put(outcome{res, err}, 0)
			})
		}
		for i := 0; i < waiters; i++ {
			p.Recv(started)
		}
		p.Sleep(time.Millisecond) // the waiters block in Result
		if h.IsReady() {
			t.Error("handle ready before its call returned")
		}
		release.Put(true, 0)
		for i := 0; i < waiters; i++ {
			v, _ := p.Recv(out)
			if o := v.(outcome); o.res != "outcome" || !errors.Is(o.err, boom) {
				t.Errorf("waiter %d got %v, %v; want outcome, boom", i, o.res, o.err)
			}
		}
		if !h.IsReady() {
			t.Error("handle not ready after its waiters returned")
		}
		if res, err := h.Result(p); res != "outcome" || !errors.Is(err, boom) {
			t.Errorf("a later Result got %v, %v; want outcome, boom", res, err)
		}
	}
	t.Run("virtual", func(t *testing.T) {
		c := vclock.New()
		s := sched.Virtual(c)
		p, done := sched.AdoptVirtual(s, "main")
		run(t, s, p)
		done()
		c.Run()
	})
	t.Run("real", func(t *testing.T) {
		s := sched.Real()
		run(t, s, sched.RealProc(s))
	})
}

func TestOInvoke(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		obj, err := a.NewObject(p, "Counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.OInvoke(p, "Add", 9); err != nil {
			t.Fatal(err)
		}
		// One-sided: no result, but the effect lands.
		p.Sleep(100 * time.Millisecond)
		got, err := obj.SInvoke(p, "Get")
		if err != nil || got.(int) != 9 {
			t.Fatalf("after oinvoke: %v, %v", got, err)
		}
	})
}

func TestRefPassing(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		// Two objects on different nodes; A calls B through a ref.
		n0, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[1])
		n1, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[2])
		objA, err := a.NewObject(p, "Counter", n0, nil)
		if err != nil {
			t.Fatal(err)
		}
		objB, err := a.NewObject(p, "Counter", n1, nil)
		if err != nil {
			t.Fatal(err)
		}
		refB, err := objB.Ref()
		if err != nil {
			t.Fatal(err)
		}
		got, err := objA.SInvoke(p, "CallOther", refB, 21)
		if err != nil || got.(int) != 21 {
			t.Fatalf("CallOther = %v, %v", got, err)
		}
		if got, _ := objB.SInvoke(p, "Get"); got.(int) != 21 {
			t.Fatal("ref invocation did not reach B")
		}
	})
}

func TestFree(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		obj, err := a.NewObject(p, "Counter", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		loc, _ := obj.NodeName()
		if err := obj.Free(p); err != nil {
			t.Fatal(err)
		}
		if w.MustRuntime(loc).Objects() != 0 {
			t.Fatal("host still has the object")
		}
		if _, err := obj.SInvoke(p, "Get"); !errors.Is(err, ErrFreedObject) {
			t.Fatalf("invoke after free: %v", err)
		}
		if err := obj.Free(p); err != nil {
			t.Fatalf("double free: %v", err)
		}
	})
}

func TestSysParamAndConstrHold(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		node, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[0])
		v, err := a.SysParam(p, node, params.Idle)
		if err != nil || v.Num < 90 {
			t.Fatalf("node idle = %v, %v", v, err)
		}
		ok, err := a.ConstrHold(p, node, params.NewConstraints().MustSet(params.Idle, ">=", 50))
		if err != nil || !ok {
			t.Fatalf("ConstrHold = %v, %v", ok, err)
		}
		ok, err = a.ConstrHold(p, node, params.NewConstraints().MustSet(params.Idle, "<", 1))
		if err != nil || ok {
			t.Fatalf("impossible constraint held: %v, %v", ok, err)
		}
		// Cluster-level parameter via fallback averaging.
		cl, err := virtarch.NewCluster(a.Allocator(p), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		v, err = a.SysParam(p, cl, params.Idle)
		if err != nil || v.Num < 80 {
			t.Fatalf("cluster idle = %v, %v", v, err)
		}
	})
}

func TestActivatedVAAggregates(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		d, err := virtarch.NewDomain(a.Allocator(p), [][]int{{3, 2}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := a.ActivateVA(d, nil, nil)
		p.Sleep(time.Second) // a few monitor rounds
		site0, _ := d.Site(0)
		cl0, _ := site0.Cluster(0)
		if cl0.AggKey() == "" {
			t.Fatal("activation did not assign agg keys")
		}
		v, err := a.SysParam(p, cl0, params.Idle)
		if err != nil || v.Num <= 0 {
			t.Fatalf("aggregated cluster idle = %v, %v", v, err)
		}
		if _, err := a.SysParam(p, d, params.Idle); err != nil {
			t.Fatalf("domain aggregate: %v", err)
		}
		if mgr, ok := h.ManagerOf(cl0.AggKey()); !ok || mgr == "" {
			t.Fatal("no manager for activated cluster")
		}
		h.Stop()
	})
}

func TestWorldBasics(t *testing.T) {
	w := NewSimWorld(simnet.UniformCluster(simnet.Ultra10_300, 3), simnet.Idle, 1, Options{
		NAS:      testNAS(),
		Registry: testRegistry(),
	})
	if len(w.Nodes()) != 3 || w.dirNode != w.Nodes()[0] {
		t.Fatalf("world shape wrong: %v dir=%s", w.Nodes(), w.dirNode)
	}
	if _, ok := w.Runtime("ghost"); ok {
		t.Fatal("runtime for unknown node")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRuntime(ghost) did not panic")
			}
		}()
		w.MustRuntime("ghost")
	}()
	if w.Directory() == nil || w.Storage() == nil || w.registry == nil {
		t.Fatal("world accessors nil")
	}
	w.RunMain(func(p sched.Proc) {
		if w.Fabric() == nil || w.Clock() == nil {
			t.Error("sim accessors nil")
		}
	})
}

func TestDefaultConstraints(t *testing.T) {
	// JS-Shell default constraints restrict placement when the app gives
	// none: forbid the slow segment globally.
	w := NewSimWorld(simnet.PaperCluster(), simnet.Idle, 1, Options{
		NAS:      testNAS(),
		Registry: testRegistry(),
	})
	w.SetDefaultConstraints(params.NewConstraints().MustSet(params.PeakBandwd, ">=", 100))
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, _ := w.Register(w.Nodes()[0])
		defer a.Unregister(p)
		cb := a.NewCodebase()
		cb.Add("Counter")
		cb.LoadNodes(p, w.Nodes()...)
		for i := 0; i < 4; i++ {
			obj, err := a.NewObject(p, "Counter", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			loc, _ := obj.NodeName()
			m, _ := w.Fabric().ByName(loc)
			if m.Spec().LinkMbps < 100 {
				t.Fatalf("default constraints ignored: %s", loc)
			}
		}
		if w.DefaultConstraints().Len() != 1 {
			t.Fatal("DefaultConstraints accessor wrong")
		}
	})
}

func TestCodebaseAccounting(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		cb := a.NewCodebase()
		if err := cb.Add("Heavy"); err != nil {
			t.Fatal(err)
		}
		if cb.bytes != 1<<20 || len(cb.classes) != 1 {
			t.Fatalf("codebase accounting: %d bytes, %v", cb.bytes, cb.classes)
		}
		if err := cb.Add("Ghost"); err == nil {
			t.Fatal("unknown class added")
		}
		target := w.Nodes()[4]
		before := w.MustRuntime(a.Home()).Station().Stats().BytesOut
		if err := cb.LoadNodes(p, target); err != nil {
			t.Fatal(err)
		}
		after := w.MustRuntime(a.Home()).Station().Stats().BytesOut
		if after-before < 1<<20 {
			t.Fatalf("jar transfer not accounted: %d bytes", after-before)
		}
		if _, err := w.MustRuntime(target).store.New("Heavy"); err != nil {
			t.Fatalf("class not loaded on target: %v", err)
		}
		cb.Free()
		if err := cb.Add("Counter"); err == nil {
			t.Fatal("Add on freed codebase accepted")
		}
		if err := cb.Load(p, nil); err == nil {
			t.Fatal("Load on freed codebase accepted")
		}
	})
}

func TestLocalFastPath(t *testing.T) {
	// Invoking an object hosted on the app's own node must not cross the
	// wire (the paper's local direct method invocation).
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		home, _ := virtarch.NewNamedNode(a.Allocator(p), a.Home())
		obj, err := a.NewObject(p, "Counter", home, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := w.MustRuntime(a.Home()).Station().Stats().CallsSent
		for i := 0; i < 10; i++ {
			if _, err := obj.SInvoke(p, "Add", 1); err != nil {
				t.Fatal(err)
			}
		}
		after := w.MustRuntime(a.Home()).Station().Stats().CallsSent
		if after != before {
			t.Fatalf("local invocations sent %d RMI calls", after-before)
		}
	})
}

func fmtNodes(w *World) string { return fmt.Sprint(w.Nodes()) }

// TestUnencodableResultFailsTheCall: a remote call of a method whose
// result the codec cannot encode fails with the codec's error, and the
// serving node goes on serving.  A same-node call never encodes the
// result, so it gets the value.
func TestUnencodableResultFailsTheCall(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		host, _ := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[1])
		obj, err := a.NewObject(p, "Counter", host, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := obj.Ref()
		other := w.MustRuntime(w.Nodes()[3])
		if _, err := other.InvokeRef(p, ref, "Pipe", nil); err == nil || !strings.Contains(err.Error(), "rmi: codec") {
			t.Fatalf("remote Pipe: err = %v, want the rmi: codec error", err)
		}
		if res, err := other.InvokeRef(p, ref, "Add", []any{2}); err != nil || res.(int) != 2 {
			t.Fatalf("Add after the failed call = %v, %v", res, err)
		}
		if res, err := w.MustRuntime(w.Nodes()[1]).InvokeRef(p, ref, "Pipe", nil); err != nil {
			t.Fatalf("same-node Pipe = %v, %v", res, err)
		} else if _, ok := res.(chan int); !ok {
			t.Fatalf("same-node Pipe returned %T", res)
		}
	})
}

// TestNoMethodText: each of the six services answers a method its table
// lacks with the one rmi text.
func TestNoMethodText(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		const want = `rmi: no method "nosuch"`
		node := w.Nodes()[2]
		for _, c := range []struct{ node, service string }{
			{node, PubService},
			{a.Home(), "oas.app:" + a.ID()},
			{w.dirNode, StaticService},
			{w.dirNode, "oas.app:" + staticApp},
			{w.dirNode, nas.DirService},
			{node, nas.AgentService},
		} {
			if _, err := a.rt.st.Call(p, c.node, c.service, "nosuch", nil, time.Second); !rmi.IsRemote(err, want) {
				t.Errorf("%s on %s: err = %v, want the remote error %q", c.service, c.node, err, want)
			}
		}
	})
}
