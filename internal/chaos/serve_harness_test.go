// Chaos-matrix extension for the serve stack (DESIGN.md §12): the
// jsbench serve workload — an open-loop, class-tagged write stream at
// several times the installation's capacity, with bounded invoke
// queues and a burn-rate admission controller shedding the low class —
// runs while the injector crashes or partitions a shard-hosting node
// mid-stream.  Two properties must hold at once, per scenario and seed:
//
//   - no acknowledged write is lost: every Put the driver got an ack
//     for reads back its exact value after the fault settles (strong
//     replication promotes a synced replica, so an ack implies the
//     value survives the primary), and
//   - a shed is never a timeout: no error satisfies both ErrOverload
//     and ErrCallTimeout, so overloaded-and-refused traffic cannot be
//     double-counted in timeout stats.  In the fault-free control run
//     the installation sheds heavily yet times out nothing.
package chaos_test

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"jsymphony"
	"jsymphony/internal/chaos"
	"jsymphony/internal/loadgen"
	"jsymphony/internal/trace"
	"jsymphony/workloads/kv"
)

// serveStream generates the shared overload stream: all-write traffic
// in two declared classes at several times the 3-shard capacity.
func serveStream(t *testing.T, seed int64, ops int) []loadgen.Arrival {
	t.Helper()
	arrivals, err := loadgen.Generate(loadgen.Config{
		Seed: seed,
		Classes: []loadgen.Class{
			{Name: "gold", Share: 0.3},
			{Name: "bronze", Share: 0.7},
		},
		Clients: 1_000_000,
		Keys:    64,
		Rate:    120,
		Ops:     ops,
	})
	if err != nil {
		t.Fatalf("generate stream: %v", err)
	}
	return arrivals
}

// serveOutcome tallies one run of the stream.
type serveOutcome struct {
	acked            map[string]int // key -> acked value
	sheds            int
	timeouts         int
	overloadTimeouts int // errors typed as BOTH (must always be 0)
	otherErrors      int
}

// TestChaosServeShedding is the serve x fault matrix: one row per
// fault shape (plus the fault-free control), for every seed.
func TestChaosServeShedding(t *testing.T) {
	scenarios := []struct {
		name  string
		fault chaos.Kind // zero value = control, no fault
	}{
		// Nothing fails: the overload alone must produce sheds but no
		// timeouts — every refusal is a definitive typed answer.
		{name: "control"},
		// A shard-hosting node dies mid-stream.  The shard's synced
		// replica is promoted and the stream continues; acked writes on
		// the dead primary must survive the promotion.
		{name: "crash", fault: chaos.Crash},
		// The same node is cut off from the driver's side for longer
		// than FailTimeout (a false death), then the link heals.
		{name: "partition", fault: chaos.Partition},
	}

	const ops = 200
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range harnessSeeds(t) {
				arrivals := serveStream(t, seed, ops)
				env := chaosEnv(t, &jsymphony.ChaosSpec{}, seed)
				for _, s := range []jsymphony.SLO{
					{Class: "gold", Target: 500 * time.Millisecond, Percentile: 99},
					{Class: "bronze", Target: 150 * time.Millisecond, Percentile: 95},
				} {
					if err := env.DeclareSLO(s); err != nil {
						t.Fatalf("seed %d: declare SLO: %v", seed, err)
					}
				}
				env.SetInvokeQueueBound(2)
				inj := env.World().Chaos()

				out := serveOutcome{acked: make(map[string]int)}
				env.RunMain("", func(js *jsymphony.JS) {
					js.Sleep(500 * time.Millisecond)
					cb := js.NewCodebase()
					if err := cb.Add(kv.StoreClass); err != nil {
						t.Errorf("seed %d: add class: %v", seed, err)
						return
					}
					if err := cb.LoadNodes(env.Nodes()...); err != nil {
						t.Errorf("seed %d: load codebase: %v", seed, err)
						return
					}
					g, err := js.NewShardGroup("kv", kv.StoreClass, jsymphony.ShardSpec{
						Shards: 3,
						Replication: &jsymphony.ReplicaPolicy{
							N: 2, Mode: jsymphony.ReplicaStrong, Reads: kv.ReadMethods(),
						},
						InitMethod: "InitRW",
						InitArgs:   []any{2e5, 2e6},
					})
					if err != nil {
						t.Errorf("seed %d: shard group: %v", seed, err)
						return
					}
					if err := g.SetAdmission(jsymphony.AdmissionPolicy{
						Classes: []string{"gold", "bronze"},
					}); err != nil {
						t.Errorf("seed %d: admission: %v", seed, err)
						return
					}

					// The fault lands mid-stream, on a shard-hosting node
					// away from the driver so the driver's side keeps going.
					if sc.fault != "" {
						home := env.Nodes()[0]
						victim := ""
						for _, sh := range groupInfo(env, "kv").Shards {
							if sh.Node != home {
								victim = sh.Node
								break
							}
						}
						if victim == "" {
							t.Errorf("seed %d: every shard on the driver node", seed)
							return
						}
						f := chaos.Fault{Kind: sc.fault, Node: victim}
						if sc.fault == chaos.Partition {
							f = chaos.Fault{Kind: chaos.Partition, A: victim, B: home, For: 800 * time.Millisecond}
						}
						js.Spawn("chaos", func(j2 *jsymphony.JS) {
							j2.Sleep(800 * time.Millisecond)
							if err := inj.Inject(f); err != nil {
								t.Errorf("seed %d: inject %s on %s: %v", seed, sc.fault, victim, err)
							}
						})
					}

					// Open-loop replay: each arrival Puts a unique key so
					// every ack is independently verifiable afterwards.
					var mu sync.Mutex
					done := 0
					epoch := js.Now()
					for i, a := range arrivals {
						if at := epoch + a.At; at > js.Now() {
							js.Sleep(at - js.Now())
						}
						i, a := i, a
						js.Spawn(fmt.Sprintf("client-%d", i), func(j2 *jsymphony.JS) {
							key := fmt.Sprintf("w%04d", i)
							_, err := g.With(j2).InvokeClass(a.Class, key, "Put", key, i)
							mu.Lock()
							switch {
							case err == nil:
								out.acked[key] = i
							case errors.Is(err, jsymphony.ErrOverload) && errors.Is(err, jsymphony.ErrCallTimeout):
								out.overloadTimeouts++
							case errors.Is(err, jsymphony.ErrOverload):
								out.sheds++
							case errors.Is(err, jsymphony.ErrCallTimeout):
								out.timeouts++
							default:
								out.otherErrors++
							}
							done++
							mu.Unlock()
						})
					}
					for {
						mu.Lock()
						d := done
						mu.Unlock()
						if d == len(arrivals) {
							break
						}
						js.Sleep(50 * time.Millisecond)
					}

					// Let promotion, heal, and zombie teardown settle, then
					// audit every acked write through the group's strong
					// reads (never stale: they serve from the live lineage).
					js.Sleep(3 * time.Second)
					keys := make([]string, 0, len(out.acked))
					for k := range out.acked {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					for _, k := range keys {
						got, err := g.Invoke(k, "Get", k)
						if err != nil {
							t.Errorf("seed %d: %s: acked key %s unreadable after fault: %v",
								seed, sc.name, k, err)
							continue
						}
						if got.(int) != out.acked[k] {
							t.Errorf("seed %d: %s: LOST WRITE — acked %s=%d but read %v",
								seed, sc.name, k, out.acked[k], got)
						}
					}
				})

				// Shedding was active in every scenario: the stream runs
				// several times over capacity even while a node is down.
				if out.sheds == 0 {
					t.Errorf("seed %d: %s: overloaded run shed nothing (acked %d of %d)",
						seed, sc.name, len(out.acked), ops)
				}
				if len(out.acked) == 0 {
					t.Errorf("seed %d: %s: no write was ever acked", seed, sc.name)
				}
				// The shed-vs-timeout taxonomy is disjoint, always.
				if out.overloadTimeouts != 0 {
					t.Errorf("seed %d: %s: %d errors typed as BOTH overload and timeout",
						seed, sc.name, out.overloadTimeouts)
				}
				if out.otherErrors != 0 {
					t.Errorf("seed %d: %s: %d errors outside the shed/timeout taxonomy",
						seed, sc.name, out.otherErrors)
				}
				// With no fault injected, refusals are the ONLY failure
				// mode a client ever sees: sheds answer instantly, so no
				// call concludes in a timeout.  Attempt-level rmi timeouts
				// may still tick while a low-class write waits out priority
				// queueing — those retries are answered in the end, so the
				// assertion is on conclusive CallTimeout events, not the
				// per-attempt counter.
				if sc.fault == "" {
					if out.timeouts != 0 {
						t.Errorf("seed %d: control: %d timeouts in a fault-free overload run",
							seed, out.timeouts)
					}
					if evs := env.World().Trace().Filter(trace.CallTimeout); len(evs) != 0 {
						t.Errorf("seed %d: control: %d conclusive call timeouts in a fault-free run (first: %s %s)",
							seed, len(evs), evs[0].Node, evs[0].Detail)
					}
				}
			}
		})
	}
}
