// Benchmarks regenerating the paper's evaluation (Figure 5) and the
// ablations listed in DESIGN.md §3 (A1–A6).  Simulated benchmarks report
// the *virtual* execution time as the "virtual-ms/op" metric — that is
// the number to compare against the paper; the ns/op column is merely
// the simulator's wall-clock cost.
package jsymphony_test

import (
	"fmt"
	"testing"
	"time"

	"jsymphony"
	"jsymphony/experiments"
	"jsymphony/workloads/matmul"
)

func init() {
	jsymphony.RegisterClass("bench.State", 2048, func() any { return &BenchState{} })
}

// BenchState is a class with adjustable payload for migration benches.
type BenchState struct {
	Data []byte
	Hits int
}

func (b *BenchState) Ping() int            { b.Hits++; return b.Hits }
func (b *BenchState) Echo(p []byte) []byte { return p }
func (b *BenchState) Grow(n int)           { b.Data = make([]byte, n) }
func (b *BenchState) Nop()                 {}

// BenchmarkFigure5 regenerates Figure 5 cells: execution time of the
// master/slave matrix multiplication on the simulated 13-workstation
// cluster, by problem size, node count, and day/night load.
func BenchmarkFigure5(b *testing.B) {
	for _, profile := range []jsymphony.LoadProfile{jsymphony.Night, jsymphony.Day} {
		for _, n := range []int{200, 400, 800} {
			for _, nodes := range []int{1, 2, 4, 6, 10, 13} {
				name := fmt.Sprintf("%s/N=%d/nodes=%d", profile.Name, n, nodes)
				b.Run(name, func(b *testing.B) {
					var total time.Duration
					for i := 0; i < b.N; i++ {
						pt := experiments.RunFigure5Point(profile, n, nodes, 1)
						total += pt.Elapsed
					}
					b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "virtual-ms/op")
				})
			}
		}
	}
}

// benchWorld boots a simulated idle uniform cluster and hands the bench
// a session; cleanup drains the simulation.
func benchWorld(b *testing.B, nodes int, fn func(js *jsymphony.JS)) {
	b.Helper()
	env := jsymphony.NewSimEnv(
		jsymphony.UniformCluster(jsymphony.Ultra10_300, nodes),
		jsymphony.IdleProfile, 1, jsymphony.EnvOptions{})
	env.RunMain("", func(js *jsymphony.JS) {
		cb := js.NewCodebase()
		if err := cb.Add("bench.State"); err != nil {
			b.Fatal(err)
		}
		if err := cb.LoadNodes(env.Nodes()...); err != nil {
			b.Fatal(err)
		}
		fn(js)
	})
}

// BenchmarkInvocation (ablation A1) compares the three invocation modes
// of §4.5 on a remote object, by payload size.  The paper's claim:
// oinvoke < ainvoke ≈ sinvoke in per-call cost, because one-sided calls
// skip the result transfer and bookkeeping.
func BenchmarkInvocation(b *testing.B) {
	for _, payload := range []int{0, 1 << 10, 64 << 10} {
		payload := payload
		run := func(name string, inner func(js *jsymphony.JS, obj *jsymphony.Object, arg []byte)) {
			b.Run(fmt.Sprintf("%s/payload=%d", name, payload), func(b *testing.B) {
				benchWorld(b, 2, func(js *jsymphony.JS) {
					node, err := js.NewNamedNode(js.Env().Nodes()[1])
					if err != nil {
						b.Fatal(err)
					}
					obj, err := js.NewObject("bench.State", node, nil)
					if err != nil {
						b.Fatal(err)
					}
					arg := make([]byte, payload)
					start := js.Now()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						inner(js, obj, arg)
					}
					b.StopTimer()
					virt := js.Now() - start
					b.ReportMetric(float64(virt.Microseconds())/float64(b.N), "virtual-us/op")
				})
			})
		}
		run("sinvoke", func(js *jsymphony.JS, obj *jsymphony.Object, arg []byte) {
			if _, err := obj.SInvoke("Echo", arg); err != nil {
				b.Fatal(err)
			}
		})
		run("ainvoke", func(js *jsymphony.JS, obj *jsymphony.Object, arg []byte) {
			h, err := obj.AInvoke("Echo", arg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.Result(); err != nil {
				b.Fatal(err)
			}
		})
		run("oinvoke", func(js *jsymphony.JS, obj *jsymphony.Object, arg []byte) {
			if err := obj.OInvoke("Echo", arg); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMigration (ablation A2) measures object migration cost by
// state size, and the stale-handle forwarding penalty of Fig. 4.
func BenchmarkMigration(b *testing.B) {
	for _, state := range []int{0, 64 << 10, 1 << 20} {
		state := state
		b.Run(fmt.Sprintf("state=%d", state), func(b *testing.B) {
			benchWorld(b, 3, func(js *jsymphony.JS) {
				nodes := js.Env().Nodes()
				n1, _ := js.NewNamedNode(nodes[1])
				n2, _ := js.NewNamedNode(nodes[2])
				obj, err := js.NewObject("bench.State", n1, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := obj.SInvoke("Grow", state); err != nil {
					b.Fatal(err)
				}
				start := js.Now()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst := n2
					if i%2 == 1 {
						dst = n1
					}
					if err := obj.Migrate(dst, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				virt := js.Now() - start
				b.ReportMetric(float64(virt.Microseconds())/float64(b.N), "virtual-us/op")
			})
		})
	}
	b.Run("stale-ref-forwarding", func(b *testing.B) {
		// Invoke through a ref whose guess points at the wrong node:
		// the cold call pays one failed attempt plus a locate at the
		// origin AppOA (Fig. 4).  The location cache is flushed every
		// iteration so each call is cold; compare against the sinvoke
		// bench for the warm path.
		benchWorld(b, 3, func(js *jsymphony.JS) {
			nodes := js.Env().Nodes()
			n1, _ := js.NewNamedNode(nodes[1])
			obj, err := js.NewObject("bench.State", n1, nil)
			if err != nil {
				b.Fatal(err)
			}
			ref, _ := obj.Ref()
			rt := js.Env().World().MustRuntime(nodes[2])
			start := js.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// ref.Origin == the app home (nodes[0]); the object is
				// on nodes[1]; the caller is nodes[2].
				rt.ForgetLocation(ref)
				if _, err := rt.InvokeRef(js.Proc(), ref, "Ping", nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			virt := js.Now() - start
			b.ReportMetric(float64(virt.Microseconds())/float64(b.N), "virtual-us/op")
		})
	})
}

// BenchmarkConstraintsSelect (ablation A3) measures allocation queries
// against the directory with the paper's 5-constraint example set.
func BenchmarkConstraintsSelect(b *testing.B) {
	env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.IdleProfile, 1, jsymphony.EnvOptions{})
	env.RunMain("", func(js *jsymphony.JS) {
		constr := jsymphony.NewConstraints().
			MustSet(jsymphony.NodeName, "!=", "milena").
			MustSet(jsymphony.CPUSysLoad, "<=", 50).
			MustSet(jsymphony.Idle, ">=", 10).
			MustSet(jsymphony.AvailMem, ">=", 10).
			MustSet(jsymphony.SwapRatio, "<=", 0.9)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := js.NewNode(constr)
			if err != nil {
				b.Fatal(err)
			}
			n.Free()
		}
	})
}

// BenchmarkCodebase (ablation A6) contrasts selective loading onto the
// nodes that need a class with replicating it everywhere, in modeled
// transfer bytes.
func BenchmarkCodebase(b *testing.B) {
	for _, mode := range []struct {
		name  string
		nodes int
	}{{"selective-4-of-13", 4}, {"replicate-all-13", 13}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.IdleProfile, 1, jsymphony.EnvOptions{})
			env.RunMain("", func(js *jsymphony.JS) {
				targets := env.Nodes()[:mode.nodes]
				start := js.Now()
				var bytes int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cb := js.NewCodebase()
					if err := cb.Add("bench.State"); err != nil {
						b.Fatal(err)
					}
					if err := cb.LoadNodes(targets...); err != nil {
						b.Fatal(err)
					}
					bytes += 2048 * mode.nodes // the size bench.State registers with
					cb.Free()
				}
				b.StopTimer()
				virt := js.Now() - start
				b.ReportMetric(float64(virt.Microseconds())/float64(b.N), "virtual-us/op")
				b.ReportMetric(float64(bytes)/float64(b.N), "wire-bytes/op")
			})
		})
	}
}

// BenchmarkTransport (ablation A5) compares real round trips over the
// in-memory and TCP-loopback transports (real time: ns/op is the
// result; the in-memory figure includes its fixed 200µs one-way
// latency).
func BenchmarkTransport(b *testing.B) {
	for _, kind := range []string{"mem", "tcp"} {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			var env *jsymphony.Env
			names := []string{"bench-a", "bench-b"}
			if kind == "mem" {
				env = jsymphony.NewLocalEnv(names, jsymphony.EnvOptions{})
			} else {
				env = jsymphony.NewTCPEnv(names, jsymphony.EnvOptions{})
			}
			env.Start()
			defer env.Shutdown()
			js, err := env.Attach("")
			if err != nil {
				b.Fatal(err)
			}
			defer js.Unregister()
			deadline := time.Now().Add(5 * time.Second)
			var node *jsymphony.Node
			for {
				if node, err = js.NewNamedNode("bench-b"); err == nil {
					break
				}
				if time.Now().After(deadline) {
					b.Fatal("agents never reported")
				}
				time.Sleep(10 * time.Millisecond)
			}
			cb := js.NewCodebase()
			cb.Add("bench.State")
			if err := cb.LoadNodes(names...); err != nil {
				b.Fatal(err)
			}
			obj, err := js.NewObject("bench.State", node, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := obj.SInvoke("Ping"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer() // keep the shutdown sleep out of the numbers
		})
	}
}

// BenchmarkLocality (ablation A7) quantifies the paper's core thesis on
// the wide-area installation: a pair of chatty objects co-mapped within
// one site versus split across the WAN.
func BenchmarkLocality(b *testing.B) {
	for _, mode := range []string{"co-mapped", "cross-site"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			env := jsymphony.NewSimEnv(jsymphony.WideAreaCluster(2), jsymphony.IdleProfile, 1, jsymphony.EnvOptions{})
			env.RunMain("", func(js *jsymphony.JS) {
				cb := js.NewCodebase()
				if err := cb.Add("bench.State"); err != nil {
					b.Fatal(err)
				}
				if err := cb.LoadNodes(env.Nodes()...); err != nil {
					b.Fatal(err)
				}
				// Nodes: vienna00, vienna01, linz00, linz01.
				target := "vienna01"
				if mode == "cross-site" {
					target = "linz01"
				}
				node, err := js.NewNamedNode(target)
				if err != nil {
					b.Fatal(err)
				}
				obj, err := js.NewObject("bench.State", node, nil)
				if err != nil {
					b.Fatal(err)
				}
				arg := make([]byte, 4<<10)
				start := js.Now()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := obj.SInvoke("Echo", arg); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				virt := js.Now() - start
				b.ReportMetric(float64(virt.Microseconds())/float64(b.N), "virtual-us/op")
			})
		})
	}
}

// BenchmarkMatmulSim measures the simulator's own throughput on a full
// Figure 5 cell (how fast the DES replays the experiment).
func BenchmarkMatmulSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pt := experiments.RunFigure5Point(jsymphony.Night, 400, 6, 1)
		if pt.Elapsed <= 0 {
			b.Fatal("bad point")
		}
	}
}

// Silence unused-import drift if matmul is only used here.
var _ = matmul.ClassName
