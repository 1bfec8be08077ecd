package jsymphony_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"jsymphony"
	"jsymphony/workloads/matmul"
)

func init() {
	jsymphony.RegisterClass("test.Accum", 1024, func() any { return &Accum{} })
}

// Accum is a tiny stateful test class.
type Accum struct{ Total float64 }

func (a *Accum) Add(x float64) float64        { a.Total += x; return a.Total }
func (a *Accum) Get() float64                 { return a.Total }
func (a *Accum) Host(c *jsymphony.Ctx) string { return c.Node() }

func testEnvOpts() jsymphony.EnvOptions {
	return jsymphony.EnvOptions{
		NAS: jsymphony.NASConfig{
			MonitorPeriod: 150 * time.Millisecond,
			FailTimeout:   600 * time.Millisecond,
			CallTimeout:   400 * time.Millisecond,
		},
	}
}

func TestPaperLifecycle(t *testing.T) {
	// The full §4 programming model in one pass, on the paper cluster.
	env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.IdleProfile, 1, testEnvOpts())
	env.RunMain("", func(js *jsymphony.JS) {
		// Constraints (§4.2) — the paper's example set.
		constr := jsymphony.NewConstraints().
			MustSet(jsymphony.NodeName, "!=", "milena").
			MustSet(jsymphony.CPUSysLoad, "<=", 10).
			MustSet(jsymphony.Idle, ">=", 50).
			MustSet(jsymphony.AvailMem, ">=", 50).
			MustSet(jsymphony.SwapRatio, "<=", 0.3)

		cluster, err := js.NewCluster(4, constr)
		if err != nil {
			t.Fatalf("cluster: %v", err)
		}
		for _, n := range cluster.NodeNames() {
			if n == "milena" {
				t.Fatal("milena in cluster despite constraint")
			}
		}

		// Class loading (§4.3).
		cb := js.NewCodebase()
		if err := cb.Add("test.Accum"); err != nil {
			t.Fatal(err)
		}
		if err := cb.Load(cluster); err != nil {
			t.Fatal(err)
		}
		cb.Free()

		// Creation + mapping (§4.4).
		n0, _ := cluster.Node(0)
		obj, err := js.NewObject("test.Accum", n0, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Synchronous invocation (§4.5).
		if got, err := obj.SInvoke("Add", 2.5); err != nil || got.(float64) != 2.5 {
			t.Fatalf("sinvoke = %v, %v", got, err)
		}
		// Asynchronous invocation (§4.5).
		h, err := obj.AInvoke("Add", 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := h.Result(); err != nil || got.(float64) != 4.0 {
			t.Fatalf("ainvoke = %v, %v", got, err)
		}
		// One-sided invocation (§4.5).
		if err := obj.OInvoke("Add", 6.0); err != nil {
			t.Fatal(err)
		}
		js.Sleep(100 * time.Millisecond)
		// Migration (§4.6).
		n1, _ := cluster.Node(1)
		if err := obj.Migrate(n1, nil); err != nil {
			t.Fatal(err)
		}
		if host, _ := obj.SInvoke("Host"); host.(string) != n1.Name() {
			t.Fatalf("after migrate Host = %v, want %s", host, n1.Name())
		}
		if got, _ := obj.SInvoke("Get"); got.(float64) != 10.0 {
			t.Fatalf("state after migration = %v", got)
		}
		// Persistence (§4.7).
		key, err := obj.Store("")
		if err != nil || key == "" {
			t.Fatalf("store = %q, %v", key, err)
		}
		loaded, err := js.Load(key, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := loaded.SInvoke("Get"); got.(float64) != 10.0 {
			t.Fatalf("loaded state = %v", got)
		}
		// System parameters on components (§4.6).
		if v, err := js.SysParam(cluster, jsymphony.Idle); err != nil || v.Num <= 0 {
			t.Fatalf("cluster idle = %v, %v", v, err)
		}
		if ok, err := js.ConstrHold(n0, constr); err != nil || !ok {
			t.Fatalf("constrHold = %v, %v", ok, err)
		}
		if err := obj.Free(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMatmulExactOnSim(t *testing.T) {
	// Small exact multiplication: the distributed result must equal the
	// sequential reference bit-for-bit (same float32 operation order per
	// row block — both iterate k then j).
	env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.IdleProfile, 1, testEnvOpts())
	env.RunMain("", func(js *jsymphony.JS) {
		cfg := matmul.Config{N: 48, RowsPerTask: 5, Nodes: 4, Model: false, Seed: 7}
		st, err := matmul.Run(js, cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if st.Tasks != 10 || st.Nodes != 4 {
			t.Fatalf("stats = %+v", st)
		}
		seq, err := matmul.RunSequential(js, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.C) != len(seq.C) {
			t.Fatal("result size mismatch")
		}
		for i := range st.C {
			if math.Abs(float64(st.C[i]-seq.C[i])) > 1e-3 {
				t.Fatalf("C[%d] = %v, want %v", i, st.C[i], seq.C[i])
			}
		}
	})
}

func TestMatmulModeledSpeedup(t *testing.T) {
	// On the idle uniform cluster, the modeled multiply must speed up
	// with node count (sanity for the Figure 5 harness).
	elapsed := map[int]time.Duration{}
	for _, nodes := range []int{1, 4} {
		nodes := nodes
		env := jsymphony.NewSimEnv(jsymphony.UniformCluster(jsymphony.Ultra10_300, 6),
			jsymphony.IdleProfile, 1, testEnvOpts())
		env.RunMain("", func(js *jsymphony.JS) {
			cfg := matmul.Config{N: 800, Nodes: nodes, Model: true, Seed: 3}
			var st matmul.Stats
			var err error
			if nodes == 1 {
				st, err = matmul.RunSequential(js, cfg)
			} else {
				st, err = matmul.Run(js, cfg)
			}
			if err != nil {
				t.Fatalf("nodes=%d: %v", nodes, err)
			}
			elapsed[nodes] = st.Elapsed
		})
	}
	speedup := float64(elapsed[1]) / float64(elapsed[4])
	if speedup < 2.5 {
		t.Fatalf("4-node speedup = %.2f (1 node %v, 4 nodes %v), want >= 2.5",
			speedup, elapsed[1], elapsed[4])
	}
}

func TestDaySlowerThanNight(t *testing.T) {
	// The headline day/night contrast of Figure 5.
	run := func(profile jsymphony.LoadProfile) time.Duration {
		env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), profile, 1, testEnvOpts())
		var el time.Duration
		env.RunMain("", func(js *jsymphony.JS) {
			st, err := matmul.Run(js, matmul.Config{N: 400, Nodes: 4, Model: true, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			el = st.Elapsed
		})
		return el
	}
	night := run(jsymphony.Night)
	day := run(jsymphony.Day)
	if day <= night {
		t.Fatalf("day (%v) not slower than night (%v)", day, night)
	}
}

func TestTCPEnvEndToEnd(t *testing.T) {
	// The same program over real TCP sockets.
	env := jsymphony.NewTCPEnv([]string{"tcp-a", "tcp-b", "tcp-c"}, testEnvOpts())
	env.Start()
	defer env.Shutdown()
	js, err := env.Attach("")
	if err != nil {
		t.Fatal(err)
	}
	defer js.Unregister()

	// Wait for agents to report so allocation can proceed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := js.NewNamedNode("tcp-b"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("directory never saw the nodes")
		}
		time.Sleep(20 * time.Millisecond)
	}

	cb := js.NewCodebase()
	cb.Add("test.Accum")
	if err := cb.LoadNodes(env.Nodes()...); err != nil {
		t.Fatal(err)
	}
	node, err := js.NewNamedNode("tcp-c")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := js.NewObject("test.Accum", node, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := obj.SInvoke("Add", 3.5); err != nil || got.(float64) != 3.5 {
		t.Fatalf("tcp sinvoke = %v, %v", got, err)
	}
	if host, _ := obj.SInvoke("Host"); host.(string) != "tcp-c" {
		t.Fatalf("host = %v", host)
	}
	// Migration over real sockets.
	dst, _ := js.NewNamedNode("tcp-b")
	if err := obj.Migrate(dst, nil); err != nil {
		t.Fatal(err)
	}
	if host, _ := obj.SInvoke("Host"); host.(string) != "tcp-b" {
		t.Fatalf("host after migrate = %v", host)
	}
	if got, _ := obj.SInvoke("Get"); got.(float64) != 3.5 {
		t.Fatal("state lost over TCP migration")
	}
}

func TestLocalEnvMatmulExact(t *testing.T) {
	// Exact matmul over the real-time in-memory transport.
	env := jsymphony.NewLocalEnv([]string{"l0", "l1", "l2"}, testEnvOpts())
	env.Start()
	defer env.Shutdown()
	js, err := env.Attach("")
	if err != nil {
		t.Fatal(err)
	}
	defer js.Unregister()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := js.NewNamedNode("l1"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("agents never reported")
		}
		time.Sleep(20 * time.Millisecond)
	}
	st, err := matmul.Run(js, matmul.Config{N: 32, RowsPerTask: 4, Nodes: 2, Model: false, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := matmul.RunSequential(js, matmul.Config{N: 32, Model: false, Seed: 11})
	for i := range st.C {
		if math.Abs(float64(st.C[i]-seq.C[i])) > 1e-3 {
			t.Fatalf("C[%d] mismatch", i)
		}
	}
}

// TestLocalEnvMigrateWhileInvoking: in a real-time world the sessions of
// one application are plain goroutines, so a spawned mover migrating an
// object while the main session posts to it and asks where it lives must
// be ordered by the AppOA's table lock.  `go test -race` is the
// assertion (the CI race job runs it; sim worlds are serialized by the
// run token and never showed the race).
func TestLocalEnvMigrateWhileInvoking(t *testing.T) {
	env := jsymphony.NewLocalEnv([]string{"m0", "m1", "m2"}, testEnvOpts())
	env.Start()
	defer env.Shutdown()
	js, err := env.Attach("")
	if err != nil {
		t.Fatal(err)
	}
	defer js.Unregister()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := js.NewNamedNode("m2"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("agents never reported")
		}
		time.Sleep(20 * time.Millisecond)
	}
	cb := js.NewCodebase()
	cb.Add("test.Accum")
	if err := cb.LoadNodes(env.Nodes()...); err != nil {
		t.Fatal(err)
	}
	node, _ := js.NewNamedNode("m1")
	obj, err := js.NewObject("test.Accum", node, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	js.Spawn("mover", func(w *jsymphony.JS) {
		defer close(done)
		for i := 0; i < 10; i++ {
			dst, err := w.NewNamedNode([]string{"m2", "m1"}[i%2])
			if err != nil {
				t.Errorf("mover node: %v", err)
				return
			}
			if err := obj.With(w).Migrate(dst, nil); err != nil {
				t.Errorf("migrate %d: %v", i, err)
				return
			}
		}
	})
	for moving := true; moving; {
		// A one-sided call racing a migration may be dropped (§4.5); only
		// the table read must be safe.
		_ = obj.OInvoke("Get")
		if _, err := obj.NodeName(); err != nil {
			t.Fatalf("NodeName during migration: %v", err)
		}
		select {
		case <-done:
			moving = false
		default:
		}
	}
	if host, err := obj.SInvoke("Host"); err != nil || host.(string) != "m1" {
		t.Fatalf("host after 10 moves = %v, %v", host, err)
	}
}

func TestSpawnConcurrency(t *testing.T) {
	env := jsymphony.NewSimEnv(jsymphony.UniformCluster(jsymphony.Ultra10_300, 3),
		jsymphony.IdleProfile, 1, testEnvOpts())
	env.RunMain("", func(js *jsymphony.JS) {
		cb := js.NewCodebase()
		cb.Add("test.Accum")
		cb.LoadNodes(js.Env().Nodes()...)
		obj, err := js.NewObject("test.Accum", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		total := 0
		for i := 0; i < 4; i++ {
			js.Spawn("worker", func(w *jsymphony.JS) {
				// Handles are proc-bound: spawned workers rebind first.
				if _, err := obj.With(w).SInvoke("Add", 1.0); err != nil {
					t.Errorf("worker invoke: %v", err)
				}
				mu.Lock()
				total++
				mu.Unlock()
			})
		}
		// In virtual time, waiting must happen via the scheduler.
		for {
			mu.Lock()
			n := total
			mu.Unlock()
			if n == 4 {
				break
			}
			js.Sleep(10 * time.Millisecond)
		}
		if got, err := obj.SInvoke("Get"); err != nil || got.(float64) != 4.0 {
			t.Fatalf("concurrent adds = %v, %v", got, err)
		}
	})
}
