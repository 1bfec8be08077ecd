package experiments

import (
	"fmt"
	"io"
	"time"

	"jsymphony"
	"jsymphony/internal/metrics"
	"jsymphony/workloads/kv"
)

// The shard experiment quantifies what key-space partitioning
// (internal/shard + core.ShardGroup) buys on the write path, the axis
// replication does not help:
//
//   - Part A, write throughput: the same batch of keyed Puts is pushed
//     through a kv shard group at S=1, 2, and 4.  Every write costs
//     WriteFlops on the owning shard's processor-shared CPU, so with a
//     single shard the whole batch serializes on one machine while with
//     S shards on distinct nodes the disjoint key slices execute in
//     parallel — aggregate write throughput scales with S.
//   - Part B, control-plane batching: 32 replicated objects share one
//     primary node, and the write-authority renewer runs for a fixed
//     window.  The per-node batched renewer folds all 32 grants into
//     one replicaAuthBatch RMI per tick, so the grant/batch ratio is
//     the factor of control-plane RMIs saved over the old per-object
//     renewal walk.
//   - Part C, read coalescing: concurrent identical reads of one hot
//     key collapse onto a single in-flight upstream RMI on the shard
//     router (singleflight); every follower is one saved call.

// ShardConfig parameterizes the experiment.  Fields are used as given:
// start from defaultShardConfig, the values the registry runs.
type ShardConfig struct {
	Seed       int64   // simulation seed
	Nodes      int     // uniform cluster size
	Keys       int     // distinct keys written in part A
	WriteFlops float64 // modeled CPU per write (primary-bound)

	AuthObjects int           // part B: replicated objects on one node
	AuthWindow  time.Duration // part B: how long the renewer runs

	Readers int // part C: concurrent readers of the hot key
}

// defaultShardConfig is the experiment as committed in BENCH_shard.json.
func defaultShardConfig(seed int64) ShardConfig {
	return ShardConfig{
		Seed:        seed,
		Nodes:       6,
		Keys:        96,
		WriteFlops:  2e6,
		AuthObjects: 32,
		AuthWindow:  2 * time.Second,
		Readers:     12,
	}
}

// ShardPoint is one cell of the part-A write-throughput sweep.
type ShardPoint struct {
	Shards     int     // shard count
	Writes     int     // keyed Puts performed
	ElapsedUs  int64   // virtual time for the whole batch
	Throughput float64 // writes per virtual second
	Exact      bool    // every key read back its exact written value
}

// ShardAuthBatch is the part-B outcome.
type ShardAuthBatch struct {
	Objects int     // replicated objects sharing the primary node
	Grants  int64   // authority grants issued (js_replica_auth_grants_total)
	Batches int64   // batched RMIs carrying them (js_replica_auth_batches_total)
	Ratio   float64 // grants per RMI = control-plane RMIs saved
}

// ShardCoalesce is the part-C outcome.
type ShardCoalesce struct {
	Readers   int   // concurrent identical reads issued
	Coalesced int64 // reads that joined an in-flight call instead of issuing one
}

// ShardResult is the whole experiment.
type ShardResult struct {
	Config       ShardConfig
	Points       []ShardPoint
	SpeedupAtMax float64 // S=4 write throughput over S=1
	AuthBatch    ShardAuthBatch
	Coalesce     ShardCoalesce
}

func shardKey(i int) string { return fmt.Sprintf("k%03d", i) }

// runShardPoint measures one shard count on a fresh cluster: create the
// group, push all keyed writes concurrently, then read every key back.
func runShardPoint(cfg ShardConfig, s int) ShardPoint {
	env := idleCluster(cfg.Nodes, cfg.Seed)
	pt := ShardPoint{Shards: s}
	env.RunMain("", func(js *jsymphony.JS) {
		js.Sleep(500 * time.Millisecond)
		loadStore(js, env)

		g, err := js.NewShardGroup("kv", kv.StoreClass, jsymphony.ShardSpec{
			Shards:     s,
			InitMethod: "InitRW",
			InitArgs:   []any{0.0, cfg.WriteFlops},
			Reads:      kv.ReadMethods(),
		})
		must(err)

		start := js.Now()
		handles := make([]*jsymphony.ResultHandle, cfg.Keys)
		for i := 0; i < cfg.Keys; i++ {
			handles[i] = g.AInvoke(shardKey(i), "Put", shardKey(i), i)
		}
		for i, h := range handles {
			if _, err := h.Result(); err != nil {
				panic(fmt.Sprintf("experiments: shard write %d: %v", i, err))
			}
			pt.Writes++
		}
		pt.ElapsedUs = (js.Now() - start).Microseconds()

		pt.Exact = true
		for i := 0; i < cfg.Keys; i++ {
			got, err := g.Invoke(shardKey(i), "Get", shardKey(i))
			must(err)
			if got.(int) != i {
				pt.Exact = false
			}
		}
	})
	pt.Throughput = float64(pt.Writes) / (float64(pt.ElapsedUs) / 1e6)
	return pt
}

// runShardAuthBatch runs part B on a fresh cluster: many replicated
// objects on one primary node, renewer left to tick for a fixed window.
func runShardAuthBatch(cfg ShardConfig) ShardAuthBatch {
	env := idleCluster(cfg.Nodes, cfg.Seed)
	res := ShardAuthBatch{Objects: cfg.AuthObjects}
	env.RunMain("", func(js *jsymphony.JS) {
		js.Sleep(500 * time.Millisecond)
		loadStore(js, env)
		home, err := js.NewNamedNode("node01")
		must(err)
		for i := 0; i < cfg.AuthObjects; i++ {
			store, err := js.NewObject(kv.StoreClass, home, nil)
			must(err)
			_, err = store.SInvoke("Init", 0.0)
			must(err)
			must(store.Replicate(jsymphony.ReplicaPolicy{
				N: 1, Mode: jsymphony.ReplicaEventual, Reads: kv.ReadMethods(),
			}))
		}
		js.Sleep(cfg.AuthWindow)
	})
	reg := env.World().Metrics()
	res.Grants = reg.Counter("js_replica_auth_grants_total").Value()
	res.Batches = reg.Counter("js_replica_auth_batches_total").Value()
	if res.Batches > 0 {
		res.Ratio = float64(res.Grants) / float64(res.Batches)
	}
	return res
}

// runShardCoalesce runs part C on a fresh cluster: a hot key behind a
// sharded store with a modeled read cost, hammered by identical
// concurrent reads.
func runShardCoalesce(cfg ShardConfig) ShardCoalesce {
	env := idleCluster(cfg.Nodes, cfg.Seed)
	res := ShardCoalesce{Readers: cfg.Readers}
	env.RunMain("", func(js *jsymphony.JS) {
		js.Sleep(500 * time.Millisecond)
		loadStore(js, env)
		g, err := js.NewShardGroup("hotkv", kv.StoreClass, jsymphony.ShardSpec{
			Shards:     2,
			InitMethod: "InitRW",
			InitArgs:   []any{2e6, 0.0}, // slow reads so readers overlap
			Reads:      kv.ReadMethods(),
		})
		must(err)
		_, err = g.Invoke("hot", "Put", "hot", 7)
		must(err)
		handles := make([]*jsymphony.ResultHandle, cfg.Readers)
		for i := range handles {
			handles[i] = g.AInvoke("hot", "Get", "hot")
		}
		for i, h := range handles {
			got, err := h.Result()
			must(err)
			if got.(int) != 7 {
				panic(fmt.Sprintf("experiments: shard coalesced read %d got %v", i, got))
			}
		}
	})
	res.Coalesced = env.World().Metrics().
		Counter(metrics.Label("js_shard_coalesced_total", "group", "hotkv")).Value()
	return res
}

// Shard runs the full experiment: the write-throughput sweep over shard
// counts, the batched-renewer window, and the coalescing run.
func Shard(cfg ShardConfig) ShardResult {
	res := ShardResult{Config: cfg}
	res.Points = append(res.Points,
		runShardPoint(cfg, 1),
		runShardPoint(cfg, 2),
		runShardPoint(cfg, 4),
	)
	var base, best float64
	for _, pt := range res.Points {
		if pt.Shards == 1 {
			base = pt.Throughput
		}
		if pt.Shards == 4 {
			best = pt.Throughput
		}
	}
	if base > 0 {
		res.SpeedupAtMax = best / base
	}
	res.AuthBatch = runShardAuthBatch(cfg)
	res.Coalesce = runShardCoalesce(cfg)
	return res
}

// WriteText renders the experiment for the terminal.
func (res ShardResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Part A — write throughput, %d keyed Puts (virtual time)\n", res.Config.Keys)
	fmt.Fprintf(w, "  %-7s %10s %12s %-6s\n", "SHARDS", "ELAPSED", "WRITES/S", "EXACT")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "  %-7d %9.2fms %12.0f %-6v\n",
			pt.Shards, float64(pt.ElapsedUs)/1000, pt.Throughput, pt.Exact)
	}
	fmt.Fprintf(w, "  speedup at S=4 over S=1: %.2fx\n\n", res.SpeedupAtMax)
	a := res.AuthBatch
	fmt.Fprintf(w, "Part B — batched write-authority renewal, %d objects on one node\n", a.Objects)
	fmt.Fprintf(w, "  %d grants carried by %d RMIs: %.1f grants per control-plane call\n\n",
		a.Grants, a.Batches, a.Ratio)
	c := res.Coalesce
	fmt.Fprintf(w, "Part C — singleflight read coalescing on the shard router\n")
	fmt.Fprintf(w, "  %d identical concurrent reads, %d joined an in-flight call\n",
		c.Readers, c.Coalesced)
}

// Claims evaluates the subsystem's headline claims.
func (res ShardResult) Claims() ([]string, bool) {
	var cl claims
	check := cl.check
	check(res.SpeedupAtMax >= 3,
		"S=4 shards deliver >= 3x single-shard write throughput (got %.2fx)", res.SpeedupAtMax)
	for _, pt := range res.Points {
		check(pt.Exact, "S=%d: every key read back its exact written value", pt.Shards)
	}
	check(res.AuthBatch.Ratio >= 4,
		"batched renewer carries >= 4 grants per control-plane RMI at %d objects/node (got %.1f)",
		res.AuthBatch.Objects, res.AuthBatch.Ratio)
	check(res.Coalesce.Coalesced > 0,
		"concurrent identical reads coalesce on the router (%d of %d joined an in-flight call)",
		res.Coalesce.Coalesced, res.Coalesce.Readers)
	return cl.result()
}
