package core

// Load-shedding tests: the bounded invoke queue's edge cases (zero
// capacity, full mailbox, unbounded), the migration/overload ordering
// contract (a migrating object deflects with retryable busy even when
// its mailbox is full), shed spans keeping SLO attribution whole, and
// the shard router's admission controller escalating, refusing, and
// recovering.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"jsymphony/internal/metrics"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/slo"
	"jsymphony/internal/trace"
	"jsymphony/internal/virtarch"
)

// TestInvokeQueueBoundTable drives the per-object bound through its
// edge cases.  `busy` SlowAdds are parked in the mailbox first; the
// probe Add must then shed or succeed according to the bound.
func TestInvokeQueueBoundTable(t *testing.T) {
	cases := []struct {
		name     string
		bound    int
		busy     int // SlowAdds in flight before the probe
		wantShed bool
	}{
		{"zero capacity sheds everything", 0, 0, true},
		{"idle object under bound admits", 2, 0, false},
		{"full mailbox sheds", 1, 1, true},
		{"free slot below bound admits", 2, 1, false},
		{"unbounded never sheds", -1, 3, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			simWorld(t, func(w *World, a *App, p sched.Proc) {
				obj, err := a.NewObject(p, "Counter", nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				w.SetInvokeQueueBound(tc.bound)
				for i := 0; i < tc.busy; i++ {
					w.Sched().Spawn(fmt.Sprintf("busy%d", i), func(p sched.Proc) {
						obj.SInvoke(p, "SlowAdd", 300, 1)
					})
				}
				p.Sleep(50 * time.Millisecond) // let the busy calls enter
				_, err = obj.SInvoke(p, "Add", 1)
				if got := errors.Is(err, rmi.ErrOverload); got != tc.wantShed {
					t.Fatalf("shed = %v (err %v), want %v", got, err, tc.wantShed)
				}
				if tc.wantShed {
					// A shed is a definitive response, never a timeout.
					if errors.Is(err, rmi.ErrTimeout) {
						t.Fatalf("shed error also matches ErrTimeout: %v", err)
					}
					if len(w.Trace().Filter(trace.OverloadShed)) == 0 {
						t.Fatal("no overload.shed event traced")
					}
					var sheds int64
					for _, c := range w.Metrics().Snapshot().Counters {
						if strings.HasPrefix(c.Name, "js_core_sheds_total") {
							sheds += c.Value
						}
					}
					if sheds == 0 {
						t.Fatal("js_core_sheds_total never incremented")
					}
				}
				p.Sleep(400 * time.Millisecond) // drain the busy calls
			})
		})
	}
}

// TestInvokeQueueBoundNormalizesNegative pins the setter contract:
// every negative input means "unbounded" and reads back as -1.
func TestInvokeQueueBoundNormalizesNegative(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		if got := int(w.queueBound.Load()); got != -1 {
			t.Fatalf("default bound = %d, want -1", got)
		}
		w.SetInvokeQueueBound(-7)
		if got := int(w.queueBound.Load()); got != -1 {
			t.Fatalf("bound after SetInvokeQueueBound(-7) = %d, want -1", got)
		}
		w.SetInvokeQueueBound(3)
		if got := int(w.queueBound.Load()); got != 3 {
			t.Fatalf("bound = %d, want 3", got)
		}
	})
}

// TestShedDuringMigrationDeflectsBusy pins the check ordering in
// Runtime.invoke: a migrating object deflects new invocations with the
// retryable busy sentinel BEFORE the queue bound is consulted, even
// when its mailbox is full.  The caller's retry loop rides out the
// migration and the invocation succeeds on the new host — it must
// never surface ErrOverload, which callers are forbidden to retry.
func TestShedDuringMigrationDeflectsBusy(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		src, dst := w.Nodes()[1], w.Nodes()[2]
		vn, err := virtarch.NewNamedNode(a.Allocator(p), src)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := a.NewObject(p, "Counter", vn, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.SetInvokeQueueBound(1)
		// Fill the single mailbox slot, then start a migration that has
		// to wait for it to drain.
		w.Sched().Spawn("holder", func(p sched.Proc) {
			obj.SInvoke(p, "SlowAdd", 400, 1)
		})
		p.Sleep(50 * time.Millisecond)
		w.Sched().Spawn("mover", func(p sched.Proc) {
			vd, err := virtarch.NewNamedNode(a.Allocator(p), dst)
			if err != nil {
				t.Error(err)
				return
			}
			if err := obj.Migrate(p, vd, nil); err != nil {
				t.Errorf("migrate: %v", err)
			}
		})
		p.Sleep(50 * time.Millisecond)
		// Mid-migration, mailbox full: must retry through busy, not shed.
		got, err := obj.SInvoke(p, "Add", 1)
		if err != nil {
			t.Fatalf("invoke during migration = %v (overload=%v)", err, errors.Is(err, rmi.ErrOverload))
		}
		if got.(int) != 2 { // SlowAdd drained first, then our Add
			t.Fatalf("counter = %v, want 2", got)
		}
		if loc, _ := obj.NodeName(); loc != dst {
			t.Fatalf("object on %s after migration, want %s", loc, dst)
		}
	})
}

// TestShedSpanKeepsAttribution pins the observability half of the shed
// contract: a mailbox shed still finishes its span — class, error, and
// all five latency segments present (zeroed) — so per-class SLO
// accounting counts the refusal as a miss and the critical-path
// aggregate keeps attributing 100% of classified latency.
func TestShedSpanKeepsAttribution(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		if err := w.DeclareSLO(slo.SLO{Class: ClassWrite, Target: 500 * time.Millisecond, Percentile: 99}); err != nil {
			t.Fatal(err)
		}
		loadTable(t, a, p)
		g, err := a.NewShardGroup(p, "tbl", "Table", ShardSpec{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		// One served write, then a zero-capacity shed of the same class.
		if _, err := g.Invoke(p, "k", "Put", "k", 1); err != nil {
			t.Fatal(err)
		}
		w.SetInvokeQueueBound(0)
		_, err = g.Invoke(p, "k", "Put", "k", 2)
		if !errors.Is(err, rmi.ErrOverload) {
			t.Fatalf("zero-capacity put = %v, want overload", err)
		}
		w.SetInvokeQueueBound(-1)

		var shedSpan *trace.Span
		spans := w.Spans().Spans()
		for i := range spans {
			s := &spans[i]
			if s.Class == ClassWrite && s.Err != "" {
				shedSpan = s
			}
		}
		if shedSpan == nil {
			t.Fatal("shed left no classified span")
		}
		if !strings.Contains(shedSpan.Err, rmi.ErrOverload.Error()) {
			t.Fatalf("shed span error %q does not carry the overload sentinel", shedSpan.Err)
		}
		if shedSpan.LeaseWait != 0 || shedSpan.Service != 0 {
			t.Fatalf("shed span carries phantom segments: %+v", shedSpan)
		}
		// The aggregate breakdown over classified spans (the served write
		// and the shed) must still attribute everything.
		bd := trace.AggregateCritPath(spans, func(s *trace.Span) bool { return s.Class != "" })
		if bd.Requests < 2 {
			t.Fatalf("breakdown saw %d classified requests, want >= 2", bd.Requests)
		}
		if bd.Coverage < 0.95 {
			t.Fatalf("coverage with sheds = %.3f, want >= 0.95", bd.Coverage)
		}
		// SLO accounting: both requests counted, the shed as an error.
		for _, c := range w.SLOReport().Classes {
			if c.Class != ClassWrite {
				continue
			}
			if c.Count < 2 || c.Errors < 1 || c.Missed < 1 {
				t.Fatalf("write class report %+v: shed not counted as a miss", c)
			}
			return
		}
		t.Fatal("write class missing from SLO report")
	})
}

// TestAdmissionShedsAndRecovers drives the router controller end to
// end: a burning low class escalates shedding on the very next admit
// (fast attack), the refusal is typed, zero-span attributed, and
// metered; unranked classes bypass the controller; and once the burn
// window clears, the level steps back down only after the Hold dwell
// (slow release).
func TestAdmissionShedsAndRecovers(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		for _, cl := range []string{"gold", "silver", "bronze"} {
			if err := w.DeclareSLO(slo.SLO{Class: cl, Target: 100 * time.Millisecond, Percentile: 95}); err != nil {
				t.Fatal(err)
			}
		}
		loadTable(t, a, p)
		g, err := a.NewShardGroup(p, "tbl", "Table", ShardSpec{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetAdmission(AdmissionPolicy{Classes: []string{"gold", "silver", "bronze"}}); err != nil {
			t.Fatal(err)
		}
		// Burn bronze's budget: a batch of failed requests lands in the
		// engine's live window.
		for i := 0; i < 30; i++ {
			w.slo.Record("bronze", time.Second, true)
		}
		// Fast attack: the very next bronze admit sees the burn, sheds.
		_, err = g.InvokeClass(p, "bronze", "k1", "Put", "k1", 1)
		if !errors.Is(err, rmi.ErrOverload) {
			t.Fatalf("bronze under burn = %v, want overload", err)
		}
		if errors.Is(err, rmi.ErrTimeout) {
			t.Fatalf("router shed also matches ErrTimeout: %v", err)
		}
		// Gold survives, and unranked classes bypass the controller.
		if _, err := g.InvokeClass(p, "gold", "k2", "Put", "k2", 2); err != nil {
			t.Fatalf("gold under level 1 = %v", err)
		}
		if _, err := g.Invoke(p, "k3", "Put", "k3", 3); err != nil {
			t.Fatalf("unranked write under level 1 = %v", err)
		}
		st, ok := g.Admission()
		if !ok {
			t.Fatal("no admission state")
		}
		if st.Level != 1 || st.ShedTotal != 1 || len(st.Shed) != 1 || st.Shed[0] != "bronze" {
			t.Fatalf("admission state = %+v, want level 1 shedding [bronze]", st)
		}
		if n := w.Metrics().Counter(metrics.Label("js_shard_admission_sheds_total", "group", "tbl", "class", "bronze")).Value(); n != 1 {
			t.Fatalf("admission shed counter = %d, want 1", n)
		}
		if len(w.Trace().Filter(trace.AdmissionLevel)) == 0 {
			t.Fatal("no admission.level event traced")
		}
		// The refusal is attributed: a zero-segment bronze span with the
		// typed error feeds the class's SLO window as a miss.
		found := false
		for _, s := range w.Spans().Spans() {
			if s.Class == "bronze" && s.Err != "" && s.Total() == 0 {
				found = true
			}
		}
		if !found {
			t.Fatal("router shed left no zero-segment bronze span")
		}
		// Slow release: let the burn window empty, then re-admit.
		p.Sleep(6 * time.Second)
		if _, err := g.InvokeClass(p, "gold", "k4", "Put", "k4", 4); err != nil {
			t.Fatalf("gold after recovery window = %v", err)
		}
		if _, err := g.InvokeClass(p, "bronze", "k5", "Put", "k5", 5); err != nil {
			t.Fatalf("bronze after recovery = %v, want re-admitted", err)
		}
		st, _ = g.Admission()
		if st.Level != 0 || st.Changes < 2 {
			t.Fatalf("admission state after recovery = %+v, want level 0", st)
		}
	})
}

// TestAdmissionPolicyValidation rejects unusable policies.
func TestAdmissionPolicyValidation(t *testing.T) {
	simWorld(t, func(w *World, a *App, p sched.Proc) {
		loadTable(t, a, p)
		g, err := a.NewShardGroup(p, "tbl", "Table", ShardSpec{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		bad := []AdmissionPolicy{
			{},                            // no classes
			{Classes: []string{"solo"}},   // nothing to shed
			{Classes: []string{"a", ""}},  // empty name
			{Classes: []string{"a", "a"}}, // duplicate
		}
		for i, pol := range bad {
			if err := g.SetAdmission(pol); err == nil {
				t.Errorf("policy %d accepted: %+v", i, pol)
			}
		}
		if _, ok := g.Admission(); ok {
			t.Fatal("admission state present though every policy was rejected")
		}
	})
}
