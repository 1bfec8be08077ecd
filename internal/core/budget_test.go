package core

import (
	"testing"
	"time"

	"jsymphony/internal/codebase"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/virtarch"
)

// budgetPinger is the invocation budget's remote class: one method with
// a result and one without, neither taking arguments, so that no row
// counts the boxing of an argument.
type budgetPinger struct{ N int }

func (b *budgetPinger) Ping() int { b.N++; return b.N }
func (b *budgetPinger) Nop()      {}

// TestInvokeAllocBudget pins the allocations of a remote invocation on
// a two-node simulated world under night load: every allocation on the
// path, the caller's, the serving node's and the background NAS
// traffic's, counted per call.  Each row names the BENCHMARK.json ledger
// row it mirrors; the ceiling is this test's count, and a change that
// lowers a count lowers its ceiling.
func TestInvokeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account, so allocation budgets do not hold under it")
	}
	reg := codebase.NewRegistry()
	reg.Register("Pinger", 2048, func() any { return &budgetPinger{} })
	w := NewSimWorld(simnet.UniformCluster(simnet.Ultra10_300, 2), simnet.Night, 1, Options{Registry: reg})
	w.RunMain(func(p sched.Proc) {
		a, err := w.Register(w.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		cb := a.NewCodebase()
		if err := cb.Add("Pinger"); err != nil {
			t.Fatal(err)
		}
		if err := cb.LoadNodes(p, w.Nodes()...); err != nil {
			t.Fatal(err)
		}
		node, err := virtarch.NewNamedNode(a.Allocator(p), w.Nodes()[1])
		if err != nil {
			t.Fatal(err)
		}
		obj, err := a.NewObject(p, "Pinger", node, nil)
		if err != nil {
			t.Fatal(err)
		}
		check := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, row := range []struct {
			name, ledger string
			ceiling      float64
			op           func()
		}{
			{"sinvoke", "core.sinvoke_allocs", 18, func() {
				_, err := obj.SInvoke(p, "Ping")
				check(err)
			}},
			{"ainvoke, then its result", "core.ainvoke_allocs", 29, func() {
				h, err := obj.AInvoke(p, "Ping")
				check(err)
				_, err = h.Result(p)
				check(err)
			}},
			{"oinvoke", "core.oinvoke_allocs", 13, func() {
				check(obj.OInvoke(p, "Nop"))
			}},
		} {
			for i := 0; i < 100; i++ { // warm: caches, pools, grown queues
				row.op()
			}
			got := testing.AllocsPerRun(2000, row.op)
			p.Sleep(10 * time.Millisecond) // one-sided calls land
			if got > row.ceiling {
				t.Errorf("%s (%s): %.1f allocs, ceiling %.1f", row.name, row.ledger, got, row.ceiling)
			} else {
				t.Logf("%s (%s): %.1f allocs, ceiling %.1f", row.name, row.ledger, got, row.ceiling)
			}
		}
		a.Unregister(p)
	})
}
