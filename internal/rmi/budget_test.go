package rmi

import (
	"testing"
	"time"

	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
)

// TestStationAllocBudget pins the allocations of one synchronous call of
// a 64-byte echo between two stations, both stations' work and the
// transport's included.  Each row names the BENCHMARK.json ledger row
// it mirrors; the ceiling is this test's count, and a change that
// lowers a count lowers its ceiling.
func TestStationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account, so allocation budgets do not hold under it")
	}
	body := make([]byte, 64)
	measure := func(w *world, p sched.Proc) float64 {
		names := nodeNames(2)
		a, b := newStation(t, w, names[0]), newStation(t, w, names[1])
		defer func() { a.Close(); b.Close() }()
		call := func() {
			if _, err := a.Call(p, names[1], "echo", "ping", body, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ { // warm: pools and grown queues
			call()
		}
		return testing.AllocsPerRun(2000, call)
	}
	for _, row := range []struct {
		name, ledger string
		ceiling      float64
		run          func() float64
	}{
		{"Call on the simulated fabric", "rmi.call_fab_allocs", 5, func() float64 {
			w := fabWorld(simnet.UniformCluster(simnet.Ultra10_300, 2))
			p, done := sched.AdoptVirtual(w.s, "caller")
			got := measure(w, p)
			done()
			w.join()
			return got
		}},
		{"Call on the in-memory network", "rmi.call_mem_allocs", 11, func() float64 {
			w := realWorld("mem-real", func(s sched.Sched) Network { return NewMem(s, 0) })
			return measure(w, sched.RealProc(w.s))
		}},
	} {
		if got := row.run(); got > row.ceiling {
			t.Errorf("%s (%s): %.1f allocs, ceiling %.1f", row.name, row.ledger, got, row.ceiling)
		} else {
			t.Logf("%s (%s): %.1f allocs, ceiling %.1f", row.name, row.ledger, got, row.ceiling)
		}
	}
}
