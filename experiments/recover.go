package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"jsymphony"
	"jsymphony/workloads/kv"
)

// The recover experiment is the durability showcase (DESIGN.md §13):
// every JS object marked Persist rides the per-node write-ahead log,
// group commit coalesces all of a node's writes into one simulated
// disk flush per commit interval, and crash-consistent replay rebuilds
// the objects — including replica sets and shard-group ring
// membership — from the logs.  Three scenarios, one seeded virtual-time
// run each, so the JSON artifact is byte-deterministic:
//
//   - crash: a fleet of persistent objects plus MinSync-replicated
//     counters takes acked writes, then chaos kills the busiest node.
//     Detector-driven replay must re-materialize every object with
//     every acknowledged write present — not just the last checkpoint.
//   - restart: the whole cluster goes down (no node survives) and a
//     fresh environment over the same stable media replays the logs.
//     The snapshot-only baseline — an explicit Store() checkpoint into
//     shared storage — provably loses the writes acked after the
//     snapshot; the WAL loses none.  A persisted shard group comes
//     back with identical ring membership.
//   - groupcommit: the identical concurrent write workload runs once
//     under group commit and once with a private fsync per write; the
//     coalesced run must touch the simulated disk far less often.

// RecoverConfig parameterizes the experiment.  Fields are used as given:
// start from defaultRecoverConfig, the values the registry runs.
type RecoverConfig struct {
	Seed    int64 // simulation + WAL media seed
	Nodes   int   // uniform cluster size
	Objects int   // persistent plain objects in the crash scenario

	Replicated int // MinSync=1 replicated counters riding along
	PostWrites int // restart: acked writes after the baseline snapshot

	Writers int // groupcommit: concurrent writers on one node
	Rounds  int // groupcommit: write rounds
}

// defaultRecoverConfig is the experiment as committed in
// BENCH_recover.json.
func defaultRecoverConfig(seed int64) RecoverConfig {
	return RecoverConfig{
		Seed:       seed,
		Nodes:      6,
		Objects:    1000,
		Replicated: 32,
		PostWrites: 25,
		Writers:    24,
		Rounds:     6,
	}
}

// RecoverCrash is the chaos-crash scenario's outcome.
type RecoverCrash struct {
	Objects      int    // persistent plain objects created
	Replicated   int    // MinSync-replicated counters created
	Victim       string // crashed node (the one hosting the most objects)
	VictimHosted int    // durable objects the victim hosted at crash time
	RecoveredOK  int    // objects reading back exactly their acked state
	Mismatched   int    // objects reading back a wrong value (must be 0)
	ReadErrors   int    // objects unreachable after recovery (must be 0)
	RecoverySpan int    // objects re-homed by recovery (js_core_recovered_total)
	Replays      uint64 // WAL replays across the cluster
	TornBytes    uint64 // bytes truncated at the torn tail during replay
}

// RecoverRestart is the whole-cluster-restart scenario's outcome.
type RecoverRestart struct {
	SnapshotValue  int  // ledger value captured by the Store() snapshot
	FinalValue     int  // ledger value after the post-snapshot acked writes
	WALValue       int  // ledger value replayed by RecoverDurable
	BaselineValue  int  // ledger value the snapshot-only baseline restores
	LostBySnapshot int  // acked writes the baseline provably lost
	LostByWAL      int  // acked writes the WAL lost (must be 0)
	LostObjects    int  // objects the manifest lists but the log cannot rebuild
	GroupRingOK    bool // shard group re-materialized with the identical ring
	GroupKeysOK    bool // every sharded binding readable after restart
	Replays        uint64
}

// RecoverGroupCommit is the flush-coalescing scenario's outcome.
type RecoverGroupCommit struct {
	Writes          int     // acked writes issued (identical in both runs)
	GroupedFlushes  uint64  // simulated disk flushes under group commit
	PerWriteFlushes uint64  // flushes with a private fsync per write
	GroupedAppends  uint64  // log records appended under group commit
	PerWriteAppends uint64  // log records appended with fsync-per-write
	Ratio           float64 // PerWriteFlushes / GroupedFlushes
}

// RecoverResult bundles the three scenarios.
type RecoverResult struct {
	Config      RecoverConfig
	Crash       RecoverCrash
	Restart     RecoverRestart
	GroupCommit RecoverGroupCommit
}

func recoverNAS() jsymphony.NASConfig {
	return jsymphony.NASConfig{
		MonitorPeriod: 150 * time.Millisecond,
		FailTimeout:   600 * time.Millisecond,
		CallTimeout:   400 * time.Millisecond,
	}
}

// Recover runs all three scenarios.
func Recover(cfg RecoverConfig) RecoverResult {
	return RecoverResult{
		Config:      cfg,
		Crash:       recoverCrash(cfg),
		Restart:     recoverRestart(cfg),
		GroupCommit: recoverGroupCommit(cfg),
	}
}

// recoverCrash: ≥1000 persistent objects plus replicated counters take
// acked writes; chaos crashes the busiest non-home node; every object
// must read back exactly its acknowledged state.
func recoverCrash(cfg RecoverConfig) RecoverCrash {
	machines := jsymphony.UniformCluster(jsymphony.Ultra10_300, cfg.Nodes)
	env := jsymphony.NewSimEnv(machines, jsymphony.IdleProfile, cfg.Seed, jsymphony.EnvOptions{
		NAS:        recoverNAS(),
		Durability: &jsymphony.DurabilityOptions{Stable: jsymphony.NewWALStable(cfg.Seed)},
	})
	env.SetRMIPolicy(retryPolicy(6))
	inj, err := env.InstallChaos(&jsymphony.ChaosSpec{}, cfg.Seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: recover: %v", err))
	}

	var res RecoverCrash
	res.Objects, res.Replicated = cfg.Objects, cfg.Replicated
	env.RunMain("", func(js *jsymphony.JS) {
		home := env.Nodes()[0]
		loadStore(js, env)

		type ward struct {
			obj  *jsymphony.Object
			key  string
			want int
		}
		wards := make([]ward, 0, cfg.Objects+cfg.Replicated)
		hosted := map[string]int{}
		for i := 0; i < cfg.Objects; i++ {
			obj, err := js.NewObject(kv.StoreClass, nil, nil)
			if err != nil {
				panic(err)
			}
			if err := obj.Persist(kv.ReadMethods()...); err != nil {
				panic(err)
			}
			k := fmt.Sprintf("obj-%04d", i)
			if _, err := obj.SInvoke("Add", k, i+1); err != nil {
				panic(err)
			}
			if node, err := obj.NodeName(); err == nil {
				hosted[node]++
			}
			wards = append(wards, ward{obj, k, i + 1})
		}
		for i := 0; i < cfg.Replicated; i++ {
			obj, err := js.NewObject(kv.StoreClass, nil, nil)
			if err != nil {
				panic(err)
			}
			if err := obj.Replicate(jsymphony.ReplicaPolicy{
				N: 2, Mode: jsymphony.ReplicaEventual, MinSync: 1, Reads: kv.ReadMethods(),
			}); err != nil {
				panic(err)
			}
			if err := obj.Persist(kv.ReadMethods()...); err != nil {
				panic(err)
			}
			k := fmt.Sprintf("rep-%04d", i)
			if _, err := obj.SInvoke("Add", k, 1000+i); err != nil {
				panic(err)
			}
			if node, err := obj.NodeName(); err == nil {
				hosted[node]++
			}
			wards = append(wards, ward{obj, k, 1000 + i})
		}

		// The victim hosts the most durable objects; the home node also
		// runs the directory and is not a fair target.
		names := make([]string, 0, len(hosted))
		for n := range hosted {
			if n != home {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			if res.Victim == "" || hosted[n] > hosted[res.Victim] {
				res.Victim = n
			}
		}
		res.VictimHosted = hosted[res.Victim]

		if err := inj.Inject(jsymphony.ChaosFault{Kind: "crash", Node: res.Victim}); err != nil {
			panic(err)
		}
		// Detection plus replay: give the detector a few periods, then
		// read everything back — retries ride out any remaining window.
		js.Sleep(3 * time.Second)
		for _, w := range wards {
			got, err := w.obj.SInvoke("Get", w.key)
			switch {
			case err != nil:
				res.ReadErrors++
			case got.(int) != w.want:
				res.Mismatched++
			default:
				res.RecoveredOK++
			}
		}
		res.RecoverySpan = int(env.World().Metrics().Counter("js_core_recovered_total").Value())
		for _, st := range env.WALStatus() {
			res.Replays += st.Replays
			res.TornBytes += st.TornBytes
		}
	})
	return res
}

// recoverRestart: the ledger takes writes, an operator snapshot is
// taken, more writes are acked, and then every node goes down at once.
// A fresh environment over the same stable media replays the logs;
// the snapshot-only baseline restores from shared storage.
func recoverRestart(cfg RecoverConfig) RecoverRestart {
	machines := jsymphony.UniformCluster(jsymphony.Ultra10_300, cfg.Nodes)
	stable := jsymphony.NewWALStable(cfg.Seed)
	storage := jsymphony.NewMemStorage()
	opts := func() jsymphony.EnvOptions {
		return jsymphony.EnvOptions{
			NAS:        recoverNAS(),
			Storage:    storage,
			Durability: &jsymphony.DurabilityOptions{Stable: stable},
		}
	}

	var res RecoverRestart
	var ledgerID uint64
	var members []string
	owners := map[string]string{}
	shardKeys := []string{"alpha", "bravo", "charlie", "delta", "echo"}

	env1 := jsymphony.NewSimEnv(machines, jsymphony.IdleProfile, cfg.Seed, opts())
	env1.SetRMIPolicy(retryPolicy(6))
	env1.RunMainDurable("", func(js *jsymphony.JS) {
		loadStore(js, env1)
		ledger, err := js.NewObject(kv.StoreClass, nil, nil)
		if err != nil {
			panic(err)
		}
		if err := ledger.Persist(kv.ReadMethods()...); err != nil {
			panic(err)
		}
		ref, err := ledger.Ref()
		if err != nil {
			panic(err)
		}
		ledgerID = ref.ID
		if _, err := ledger.SInvoke("Add", "bal", 100); err != nil {
			panic(err)
		}
		// The snapshot-only baseline: an explicit checkpoint into shared
		// storage, the best a WAL-less installation can do.
		if _, err := ledger.Store("recover-snapshot"); err != nil {
			panic(err)
		}
		v, err := ledger.SInvoke("Get", "bal")
		if err != nil {
			panic(err)
		}
		res.SnapshotValue = v.(int)
		// Acked writes after the snapshot: the baseline has no record of
		// these, the WAL logs every one before the ack.
		for i := 0; i < cfg.PostWrites; i++ {
			if _, err := ledger.SInvoke("Add", "bal", 1); err != nil {
				panic(err)
			}
		}
		v, err = ledger.SInvoke("Get", "bal")
		if err != nil {
			panic(err)
		}
		res.FinalValue = v.(int)

		// A persisted shard group: restart must bring back the identical
		// ring, not just the data.
		g, err := js.NewShardGroup("kv", kv.StoreClass, jsymphony.ShardSpec{
			Shards: 3, Reads: kv.ReadMethods(),
		})
		if err != nil {
			panic(err)
		}
		if err := g.Persist(kv.ReadMethods()...); err != nil {
			panic(err)
		}
		for i, k := range shardKeys {
			if _, err := g.Invoke(k, "Put", k, 500+i); err != nil {
				panic(err)
			}
			owners[k] = g.Owner(k)
		}
		members = g.Shards()
		js.Sleep(100 * time.Millisecond) // let the last group commits land
	})

	// The restart: a new world over the same stable media and storage.
	env2 := jsymphony.NewSimEnv(machines, jsymphony.IdleProfile, cfg.Seed+1, opts())
	env2.SetRMIPolicy(retryPolicy(6))
	env2.RunMainDurable("", func(js *jsymphony.JS) {
		loadStore(js, env2)
		recs, err := js.RecoverDurable()
		if err != nil {
			panic(fmt.Sprintf("experiments: recover restart: %v", err))
		}
		p := js.Proc()
		for _, rec := range recs {
			res.LostObjects += len(rec.Lost) + len(rec.LostShards)
			if obj, ok := rec.Objects[ledgerID]; ok {
				v, err := obj.SInvoke(p, "Get", "bal")
				if err != nil {
					panic(err)
				}
				res.WALValue = v.(int)
			}
			for _, g := range rec.Groups {
				ringOK := len(g.Shards()) == len(members)
				for i, m := range g.Shards() {
					if i >= len(members) || m != members[i] {
						ringOK = false
					}
				}
				res.GroupRingOK = ringOK
				res.GroupKeysOK = true
				for i, k := range shardKeys {
					if g.Owner(k) != owners[k] {
						res.GroupRingOK = false
					}
					v, err := g.Invoke(p, k, "Get", k)
					if err != nil || v.(int) != 500+i {
						res.GroupKeysOK = false
					}
				}
			}
		}
		// The baseline restores its snapshot from shared storage.
		base, err := js.Load("recover-snapshot", nil, nil)
		if err != nil {
			panic(err)
		}
		v, err := base.SInvoke("Get", "bal")
		if err != nil {
			panic(err)
		}
		res.BaselineValue = v.(int)
		for _, st := range env2.WALStatus() {
			res.Replays += st.Replays
		}
	})

	res.LostBySnapshot = res.FinalValue - res.BaselineValue
	res.LostByWAL = res.FinalValue - res.WALValue
	return res
}

// recoverGroupCommit: the identical concurrent write workload, once
// coalesced by group commit and once with a private fsync per write.
func recoverGroupCommit(cfg RecoverConfig) RecoverGroupCommit {
	run := func(interval time.Duration) (flushes, appends uint64) {
		machines := jsymphony.UniformCluster(jsymphony.Ultra10_300, cfg.Nodes)
		env := jsymphony.NewSimEnv(machines, jsymphony.IdleProfile, cfg.Seed, jsymphony.EnvOptions{
			NAS: recoverNAS(),
			Durability: &jsymphony.DurabilityOptions{
				Stable:         jsymphony.NewWALStable(cfg.Seed),
				CommitInterval: interval,
			},
		})
		env.SetRMIPolicy(retryPolicy(6))
		env.RunMain("", func(js *jsymphony.JS) {
			loadStore(js, env)
			// All writers on one node, so its log sees genuinely
			// concurrent appends each round.
			vn, err := js.NewNamedNode(env.Nodes()[1])
			if err != nil {
				panic(err)
			}
			objs := make([]*jsymphony.Object, cfg.Writers)
			for i := range objs {
				obj, err := js.NewObject(kv.StoreClass, vn, nil)
				if err != nil {
					panic(err)
				}
				if err := obj.Persist(kv.ReadMethods()...); err != nil {
					panic(err)
				}
				objs[i] = obj
			}
			for r := 0; r < cfg.Rounds; r++ {
				handles := make([]*jsymphony.ResultHandle, len(objs))
				for i, obj := range objs {
					h, err := obj.AInvoke("Add", "n", 1)
					if err != nil {
						panic(err)
					}
					handles[i] = h
				}
				for _, h := range handles {
					if _, err := h.Result(); err != nil {
						panic(err)
					}
				}
			}
			for _, st := range env.WALStatus() {
				flushes += st.Flushes
				appends += st.Appends
			}
		})
		return flushes, appends
	}

	var res RecoverGroupCommit
	res.Writes = cfg.Writers * cfg.Rounds
	// 25ms commit interval: the coalescing knob turned up, trading a
	// bounded ack latency for fewer media flushes; -1 is a private
	// fsync per write.
	res.GroupedFlushes, res.GroupedAppends = run(25 * time.Millisecond)
	res.PerWriteFlushes, res.PerWriteAppends = run(-1)
	if res.GroupedFlushes > 0 {
		res.Ratio = float64(res.PerWriteFlushes) / float64(res.GroupedFlushes)
	}
	return res
}

// WriteText renders the result for the terminal.
func (res RecoverResult) WriteText(w io.Writer) {
	cfg := res.Config
	c := res.Crash
	fmt.Fprintf(w, "crash: %d persistent + %d MinSync-replicated objects on %d nodes, %s crashed (%d hosted)\n",
		c.Objects, c.Replicated, cfg.Nodes, c.Victim, c.VictimHosted)
	fmt.Fprintf(w, "  read back with every acked write: %d/%d (mismatched %d, unreachable %d)\n",
		c.RecoveredOK, c.Objects+c.Replicated, c.Mismatched, c.ReadErrors)
	fmt.Fprintf(w, "  WAL replays: %d  torn bytes truncated: %d  recovery events: %d\n\n",
		c.Replays, c.TornBytes, c.RecoverySpan)

	r := res.Restart
	fmt.Fprintf(w, "restart: ledger snapshotted at %d, then %d more acked writes -> %d; whole cluster down\n",
		r.SnapshotValue, cfg.PostWrites, r.FinalValue)
	fmt.Fprintf(w, "  WAL replay restores:      %d  (lost %d)\n", r.WALValue, r.LostByWAL)
	fmt.Fprintf(w, "  snapshot-only restores:   %d  (lost %d acked writes)\n", r.BaselineValue, r.LostBySnapshot)
	fmt.Fprintf(w, "  shard ring identical: %v  sharded data intact: %v  unrecoverable objects: %d\n\n",
		r.GroupRingOK, r.GroupKeysOK, r.LostObjects)

	g := res.GroupCommit
	fmt.Fprintf(w, "groupcommit: %d concurrent acked writes on one node's log\n", g.Writes)
	fmt.Fprintf(w, "  group commit:    %4d disk flushes (%d records)\n", g.GroupedFlushes, g.GroupedAppends)
	fmt.Fprintf(w, "  fsync-per-write: %4d disk flushes (%d records)\n", g.PerWriteFlushes, g.PerWriteAppends)
	fmt.Fprintf(w, "  coalescing: %.1fx fewer flushes\n", g.Ratio)
}

// Claims evaluates the subsystem's headline claims.
func (res RecoverResult) Claims() ([]string, bool) {
	var cl claims
	check := cl.check
	c, r, g := res.Crash, res.Restart, res.GroupCommit
	total := c.Objects + c.Replicated
	check(c.Objects >= 1000 && c.RecoveredOK == total && c.Mismatched == 0 && c.ReadErrors == 0,
		"all %d persistent objects (incl. %d replicated) read back every acked write after the crash of %s",
		total, c.Replicated, c.Victim)
	check(c.Replays >= 1 && c.VictimHosted > 0,
		"recovery replayed the WAL (%d replays) for the %d objects the victim hosted",
		c.Replays, c.VictimHosted)
	check(c.RecoverySpan > 0,
		"recovery re-homed %d objects after the crash (%d hosted by the victim)",
		c.RecoverySpan, c.VictimHosted)
	check(r.LostByWAL == 0 && r.LostObjects == 0 && r.WALValue == r.FinalValue,
		"whole-cluster restart: log replay restores the ledger at %d, every acked write present",
		r.WALValue)
	check(r.LostBySnapshot > 0 && r.BaselineValue == r.SnapshotValue,
		"snapshot-only baseline provably loses the %d writes acked after its checkpoint (restores %d, not %d)",
		r.LostBySnapshot, r.BaselineValue, r.FinalValue)
	check(r.GroupRingOK && r.GroupKeysOK,
		"persisted shard group re-materializes with identical ring membership and readable data")
	check(g.Ratio >= 5,
		"group commit coalesces %d writes into %d flushes — %.1fx fewer than fsync-per-write (%d)",
		g.Writes, g.GroupedFlushes, g.Ratio, g.PerWriteFlushes)
	return cl.result()
}
