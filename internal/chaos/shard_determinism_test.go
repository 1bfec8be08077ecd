// Chaos matrix and determinism regression for the shard-group
// subsystem: a consistent-hash partitioned kv store absorbing a keyed
// write stream while the injector crashes shard hosts, partitions them
// from the directory, and drops messages.  Correctness bar: after the
// run every written key reads back its exact value through the router,
// lives on exactly one shard, and that shard is the one the ring owns
// it to.  Determinism bar: two identically-seeded runs leave
// byte-identical metrics, trace, and span artifacts.
package chaos_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"jsymphony"
	"jsymphony/internal/trace"
	"jsymphony/workloads/kv"
)

func shardTestKey(i int) string { return fmt.Sprintf("k%03d", i) }

// groupInfo snapshots the named shard group — its shards and their
// hosting — as the installation sees it.
func groupInfo(env *jsymphony.Env, name string) jsymphony.ShardGroupInfo {
	for _, a := range env.World().Apps() {
		if g, ok := a.ShardGroup(name); ok {
			return g.Info()
		}
	}
	return jsymphony.ShardGroupInfo{}
}

// shardSpecN1 is the group spec every shard chaos scenario uses: three
// shards, each with one strong read replica, so a crashed shard host
// promotes instead of losing its key slice.
func shardSpecN1() jsymphony.ShardSpec {
	return jsymphony.ShardSpec{
		Shards: 3,
		Replication: &jsymphony.ReplicaPolicy{
			N: 1, Mode: jsymphony.ReplicaStrong, Reads: kv.ReadMethods(),
		},
		InitMethod: "Init",
		InitArgs:   []any{0.0},
	}
}

// driveShardedKV creates the group, pushes keys writes spaced over the
// fault window, optionally grows the ring by one shard, and returns the
// group handle.
func driveShardedKV(t *testing.T, js *jsymphony.JS, env *jsymphony.Env, keys int, grow bool, seed int64) *jsymphony.ShardGroup {
	t.Helper()
	js.Sleep(500 * time.Millisecond)
	cb := js.NewCodebase()
	if err := cb.Add(kv.StoreClass); err != nil {
		t.Fatalf("seed %d: add class: %v", seed, err)
	}
	if err := cb.LoadNodes(env.Nodes()...); err != nil {
		t.Fatalf("seed %d: load codebase: %v", seed, err)
	}
	g, err := js.NewShardGroup("kv", kv.StoreClass, shardSpecN1())
	if err != nil {
		t.Fatalf("seed %d: new shard group: %v", seed, err)
	}
	for i := 0; i < keys; i++ {
		if _, err := g.Invoke(shardTestKey(i), "Put", shardTestKey(i), i); err != nil {
			t.Fatalf("seed %d: put %s: %v", seed, shardTestKey(i), err)
		}
		js.Sleep(30 * time.Millisecond)
	}
	if grow {
		if _, err := g.Grow(""); err != nil {
			t.Fatalf("seed %d: grow: %v", seed, err)
		}
	}
	return g
}

// verifyShardedKV asserts element-exact reads through the router and a
// clean partition: every key on exactly one shard, the one the ring
// owns it to.
func verifyShardedKV(t *testing.T, env *jsymphony.Env, g *jsymphony.ShardGroup, keys int, seed int64, plan string) {
	t.Helper()
	for i := 0; i < keys; i++ {
		got, err := g.Invoke(shardTestKey(i), "Get", shardTestKey(i))
		if err != nil {
			t.Fatalf("seed %d: read %s under %s: %v", seed, shardTestKey(i), plan, err)
		}
		if got.(int) != i {
			t.Fatalf("seed %d: %s = %v under %s, want %d", seed, shardTestKey(i), got, plan, i)
		}
	}
	resident := make(map[string]string) // key -> shard holding it
	for _, si := range groupInfo(env, "kv").Shards {
		inst, ok := env.World().MustRuntime(si.Node).Instance(si.Ref)
		if !ok {
			t.Fatalf("seed %d: shard %s has no instance on %s under %s", seed, si.Shard, si.Node, plan)
		}
		for k := range inst.(*kv.Store).Data {
			if prev, dup := resident[k]; dup {
				t.Fatalf("seed %d: key %s on two shards (%s and %s) under %s", seed, k, prev, si.Shard, plan)
			}
			resident[k] = si.Shard
		}
	}
	if len(resident) != keys {
		t.Fatalf("seed %d: shards hold %d keys, want %d under %s", seed, len(resident), keys, plan)
	}
	for k, sname := range resident {
		if owner := g.Owner(k); owner != sname {
			t.Fatalf("seed %d: key %s resident on %s but owned by %s under %s", seed, k, sname, owner, plan)
		}
	}
}

// TestChaosShardedKVScenarios is the shard chaos matrix: the same keyed
// write stream runs under a shard-host crash, a directory partition,
// and message loss, for every seed.  Fault times land inside the
// ~0.55s–2s write window.
func TestChaosShardedKVScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		plan string
	}{
		// A shard host dies mid-stream; its replica is promoted and the
		// router chases the moved shard object.
		{name: "crash", plan: "crash:node01@1.1s"},
		// A shard host is cut off from the directory long enough to be
		// declared dead, then heals: promotion plus zombie teardown.
		{name: "partition", plan: "partition:node00/node01@900ms+1.5s"},
		// 5% of all messages vanish; retries and dedup keep every keyed
		// write exactly-once.
		{name: "loss", plan: "loss:*:0.05@600ms"},
	}
	const keys = 48
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range harnessSeeds(t) {
				spec, err := jsymphony.ParseChaos(sc.plan)
				if err != nil {
					t.Fatalf("seed %d: parse %q: %v", seed, sc.plan, err)
				}
				env := chaosEnv(t, spec, seed)
				env.RunMain("", func(js *jsymphony.JS) {
					g := driveShardedKV(t, js, env, keys, false, seed)
					js.Sleep(1 * time.Second) // let detection/promotion settle
					verifyShardedKV(t, env, g, keys, seed, sc.plan)
				})
				if len(env.World().Trace().Filter(trace.ChaosFault)) == 0 {
					t.Errorf("seed %d: no ChaosFault traced for %s", seed, sc.plan)
				}
			}
		})
	}
}

// shardRunArtifacts runs one seeded sharded-kv scenario — keyed writes
// through a shard-host crash, then a ring grow with its handoff — and
// renders all observable state.
func shardRunArtifacts(t *testing.T, seed int64) (metricsJSON, traceLog, spanLog string) {
	t.Helper()
	spec, err := jsymphony.ParseChaos("crash:node01@1.1s")
	if err != nil {
		t.Fatal(err)
	}
	env := chaosEnv(t, spec, seed)
	env.RunMain("", func(js *jsymphony.JS) {
		g := driveShardedKV(t, js, env, 30, true, seed)
		js.Sleep(1 * time.Second)
		verifyShardedKV(t, env, g, 30, seed, "determinism")
	})

	var mb strings.Builder
	if err := env.World().Metrics().Snapshot().WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, s := range env.World().Spans().Spans() {
		sb.WriteString(s.String())
		sb.WriteByte('\n')
	}
	return mb.String(), env.World().Trace().String(), sb.String()
}

// TestShardDeterminism runs the sharded scenario twice per seed and
// asserts byte-identical artifacts.
func TestShardDeterminism(t *testing.T) {
	for _, seed := range harnessSeeds(t) {
		m1, t1, s1 := shardRunArtifacts(t, seed)
		m2, t2, s2 := shardRunArtifacts(t, seed)
		if t.Failed() {
			t.Fatalf("seed %d: run errors above — determinism comparison skipped", seed)
		}
		for _, pair := range []struct {
			what string
			a, b string
		}{
			{"metrics snapshot", m1, m2},
			{"trace log", t1, t2},
			{"span log", s1, s2},
		} {
			if pair.a != pair.b {
				t.Errorf("seed %d: %s differs between identically-seeded shard runs:\n%s",
					seed, pair.what, firstDiff(pair.a, pair.b))
			}
		}
		if strings.TrimSpace(m1) == "" || strings.TrimSpace(t1) == "" || strings.TrimSpace(s1) == "" {
			t.Fatalf("seed %d: empty artifacts — the shard run produced nothing to compare", seed)
		}
		// The run must actually exercise the subsystem under test.
		for _, want := range []string{"js_shard_invokes_total", "js_shard_keys_moved_total"} {
			if !strings.Contains(m1, want) {
				t.Errorf("seed %d: metrics snapshot lacks %s — shard paths not exercised\n%s",
					seed, want, firstLines(m1, 20))
			}
		}
		// Span shard tags must survive into the rendered artifacts.
		if !strings.Contains(s1, "shard=kv#") {
			t.Errorf("seed %d: span log carries no shard tags", seed)
		}
	}
}
