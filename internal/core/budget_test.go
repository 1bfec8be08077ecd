package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"jsymphony/internal/budget"
	"jsymphony/internal/codebase"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
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

// budgetRow is one ceiling of the package's allocation budget.  ledger
// names the BENCHMARK.json ledger row it mirrors, where one exists; the
// ceiling is the row's count (allocations, or bytes where the name says
// so), and a change that lowers a count lowers its ceiling.
type budgetRow struct {
	name, ledger string
	ceiling      float64
	run          func() float64
}

// encodes pins v's encoded size exactly and returns the allocations of
// one rmi.Marshal.  v arrives as an any, as a body sent through the
// station does, so the count holds no boxing at this call.
func encodes(t *testing.T, v any, size int) func() float64 {
	return func() float64 {
		if got := len(rmi.MustMarshal(v)); got != size {
			t.Errorf("%T encodes to %d bytes, want %d", v, got, size)
		}
		return testing.AllocsPerRun(100, func() { rmi.MustMarshal(v) })
	}
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes: the average
// over runs calls of op, after one warm-up call, at GOMAXPROCS 1.
func bytesPerRun(runs int, op func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// decodes returns the allocations of one rmi.Unmarshal of v's encoding
// into a fresh target: the target plus its strings, arguments and
// result.  State aliases the body it came in.
func decodes(t *testing.T, v any, fresh func() any) func() float64 {
	return func() float64 {
		body := rmi.MustMarshal(v)
		return testing.AllocsPerRun(100, func() {
			if err := rmi.Unmarshal(body, fresh()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// runInvokeBudget checks the rows of the package's allocation budget
// filed under the running test's name.  The budget is one table, one
// group of rows per test: a remote invocation on a two-node simulated
// world under night load, every allocation on the path, the caller's,
// the serving node's and the background NAS traffic's, counted per
// call; a strong write to a replicated 340-key table and a read routed
// to its replica, on the same world, updates applied at that replica
// followed by one read there, and one tick of the authority renewer
// over three replicated primaries; and the encode and decode of the
// busiest protocol bodies, filled, and of a replica set under its tag,
// whose encoded sizes it pins exactly.
func runInvokeBudget(t *testing.T) {
	if budget.RaceEnabled {
		t.Skip("the race runtime allocates on its own account, so allocation budgets do not hold under it")
	}
	reg := codebase.NewRegistry()
	reg.Register("Pinger", 2048, func() any { return &budgetPinger{} })
	reg.Register("Table", 4096, func() any { return &Table{} })
	w := NewSimWorld(simnet.UniformCluster(simnet.Ultra10_300, 2), simnet.Night, 1, Options{Registry: reg, Durability: &DurabilityOptions{}})
	w.RunMain(func(p sched.Proc) {
		a, err := w.Register(w.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		cb := a.NewCodebase()
		for _, class := range []string{"Pinger", "Table"} {
			if err := cb.Add(class); err != nil {
				t.Fatal(err)
			}
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
		measure := func(count func(int, func()) float64, op func()) func() float64 {
			return func() float64 {
				for i := 0; i < 100; i++ { // warm: caches, pools, grown queues
					op()
				}
				got := count(2000, op)
				p.Sleep(10 * time.Millisecond) // one-sided calls land
				return got
			}
		}
		invoke := func(op func()) func() float64 { return measure(testing.AllocsPerRun, op) }
		// A durable Pinger on the second node: each Ping is logged and
		// acked only once the daemon's next group commit has synced it.
		var durable *Object
		durableWrite := func() {
			if durable == nil {
				var err error
				durable, err = a.NewObject(p, "Pinger", node, nil)
				check(err)
				check(durable.Persist(p))
			}
			_, err := durable.SInvoke(p, "Ping")
			check(err)
		}
		// The replicated table: 340 keys, as sim_serve's shards hold once
		// touched, primary on the second node, its one strong replica on
		// the first, where the caller runs.
		var table *Object
		replicated := func() *Object {
			if table != nil {
				return table
			}
			var err error
			table, err = a.NewObject(p, "Table", node, nil)
			check(err)
			for i := 0; i < 340; i++ {
				_, err := table.SInvoke(p, "Put", fmt.Sprintf("key%03d", i), i)
				check(err)
			}
			check(table.Replicate(p, replica.Policy{N: 1, Mode: replica.Strong, Reads: []string{"Get"}}))
			return table
		}
		write := func() {
			_, err := replicated().SInvoke(p, "Put", "key007", 7)
			check(err)
		}
		// pendingThenRead applies pendingUpdates updates of the table's
		// image at its replica, as the replicaUpdate handler does, then
		// serves one read there.
		const pendingUpdates = 4
		var (
			pendingReq  replicaUpdateReq
			pendingRead invokeReq
		)
		replicaRT := w.MustRuntime(w.Nodes()[0])
		pendingThenRead := func() {
			if pendingReq.State == nil {
				ref, err := replicated().Ref()
				check(err)
				image, _, err := w.MustRuntime(w.Nodes()[1]).captureState(p, objKey{ref.App, ref.ID}, nil)
				check(err)
				pendingReq = replicaUpdateReq{Ref: ref, State: image, Lease: time.Second, Mode: replica.Strong, Primary: w.Nodes()[1]}
				pendingRead = invokeReq{App: ref.App, ID: ref.ID, Method: "Get", Args: []any{"key007"}, Read: true}
			}
			for i := 0; i < pendingUpdates; i++ {
				replicaRT.mu.Lock()
				pendingReq.Version = replicaRT.hosted[objKey{pendingReq.Ref.App, pendingReq.Ref.ID}].repl.version + 1
				replicaRT.mu.Unlock()
				pendingReq.AsOf = w.Sched().Now()
				check(replicaRT.replicaApply(p, pendingReq))
			}
			resp, err := replicaRT.invoke(p, pendingRead)
			check(err)
			if resp.Result != 7 {
				t.Fatalf("replica read after %d updates: %v, want 7", pendingUpdates, resp.Result)
			}
		}
		// Three replicated primaries, the table among them, for one tick
		// of the authority renewer.
		var renewal authRenewal
		renewTick := func() {
			if renewal.targets == nil {
				replicated()
				for i := 0; i < 2; i++ {
					o, err := a.NewObject(p, "Table", node, nil)
					check(err)
					check(o.Replicate(p, replica.Policy{N: 1, Mode: replica.Strong, Reads: []string{"Get"}}))
				}
			}
			if !a.renewAuthority(p, &renewal) || len(renewal.targets) != 3 {
				t.Fatalf("renewal tick over %d primaries, want 3", len(renewal.targets))
			}
		}
		set := replica.Set{
			Primary: "n02", Replicas: []string{"n04", "n05"},
			Mode: replica.Strong, Lease: 250 * time.Millisecond,
			Reads: []string{"Get", "Sum"},
		}
		req, resp, update := filled(invokeReq{}), filled(invokeResp{}), filled(replicaUpdateReq{})
		budget := map[string][]budgetRow{
			"TestInvokeAllocBudget": {
				{"sinvoke", "core.sinvoke_allocs", 15, invoke(func() {
					_, err := obj.SInvoke(p, "Ping")
					check(err)
				})},
				// The handle's queue is a mailbox holding its one token
				// and its one waiter inline, and the outcome stays on the
				// handle: 5 fewer than when the queue was wrapped and the
				// outcome boxed into each Put.
				{"ainvoke, then its result", "core.ainvoke_allocs", 19, invoke(func() {
					h, err := obj.AInvoke(p, "Ping")
					check(err)
					_, err = h.Result(p)
					check(err)
				})},
				{"oinvoke", "core.oinvoke_allocs", 10, invoke(func() {
					check(obj.OInvoke(p, "Nop"))
				})},
				// One image encode per write: the undo image reuses the
				// image the previous write shipped.  The table's image is
				// 3013 B, and encoding it once more costs 1 allocation,
				// its buffer: the key set is unchanged, so the encode
				// reuses its sorted key order.
				// The write's replica set shares the primary's member and
				// read lists instead of copying them, and the replica
				// keeps the image undecoded until a read needs it.
				{"strong write to a replicated 340-key table", "replica.write_us", 33, invoke(write)},
				{"strong write to a replicated 340-key table, bytes", "replica.write_us", 8500, measure(bytesPerRun, write)},
				// The replica counts the read on a handle its node resolved
				// once, so no label is built per read; the route shares the
				// table row's member list and the router reads the set in
				// place, sorting its candidates on the stack.
				{"read routed to the table's replica", "", 6, invoke(func() {
					_, err := replicated().SInvoke(p, "Get", "key007")
					check(err)
				})},
				// The updates decode nothing; the read decodes the last
				// image once (the target, the map's 4 and one backing for
				// its keys) and executes on it.  A decode per update
				// would add 6 allocations each.
				{"4 updates applied, then one replica read", "", 9, invoke(pendingThenRead)},
				// One replicaAuthBatch RMI carrying three grants; the
				// renewer's targets and batch buffer are reused from tick
				// to tick, and the grouping by node is built afresh: its
				// slice and the node's entry list, grown to three, cost 4.
				// Each grant is boxed into an any and encoded once, into
				// pooled scratch, straight into the batch.
				{"authority renewal tick over three primaries", "", 20, invoke(renewTick)},
				// The write parks on a single-use queue (one allocation),
				// under the node's one queue name and the object's one WAL
				// key; the waiter list keeps its backing across commits.
				{"durable write acked by one group commit", "", 18, invoke(durableWrite)},
			},
			"TestWireAllocCeiling": {
				{"invokeReq encode", "", 1, encodes(t, req, 44)},
				{"invokeReq decode", "", 10, decodes(t, req, func() any { return new(invokeReq) })},
				// The map result sorts its keys on the stack.
				{"invokeResp encode", "", 1, encodes(t, resp, 53)},
				{"invokeResp decode", "", 9, decodes(t, resp, func() any { return new(invokeResp) })},
				{"replicaUpdateReq encode", "", 1, encodes(t, update, 39)},
				{"replicaUpdateReq decode", "", 6, decodes(t, update, func() any { return new(replicaUpdateReq) })},
				// Under its tag: as a named layout, rmi alone would spend 49 B.
				{"replicaSet encode", "", 1, encodes(t, set, 36)},
				{"replicaSet decode", "", 7, decodes(t, set, func() any { return new(replica.Set) })},
			},
		}
		rows := budget[t.Name()]
		if len(rows) == 0 {
			t.Fatalf("the budget table has no rows for %s", t.Name())
		}
		for _, row := range rows {
			name := row.name
			if row.ledger != "" {
				name += " (" + row.ledger + ")"
			}
			if got := row.run(); got > row.ceiling {
				t.Errorf("%s: %.1f, ceiling %.1f", name, got, row.ceiling)
			} else {
				t.Logf("%s: %.1f, ceiling %.1f", name, got, row.ceiling)
			}
		}
		a.Unregister(p)
	})
}

// TestInvokeAllocBudget: sinvoke, ainvoke and oinvoke of a method that
// takes no arguments, so that no row counts the boxing of an argument.
func TestInvokeAllocBudget(t *testing.T) { runInvokeBudget(t) }

// TestWireAllocCeiling: the busiest protocol bodies, filled, at the
// counts the hand-written schemas had, one per encode (the returned
// buffer) and, per decode, the target plus its strings, arguments and
// result; and a replica set under its tag.
func TestWireAllocCeiling(t *testing.T) { runInvokeBudget(t) }
