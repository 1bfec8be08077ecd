package experiments

import (
	"fmt"
	"io"
	"time"

	"jsymphony"
	"jsymphony/workloads/kv"
)

// The replica experiment quantifies what the locality-oriented
// replication subsystem (internal/replica) buys on the paper's two axes:
//
//   - Part A, read throughput: a read-mostly kv.Store is hammered by one
//     reader per cluster node.  With a single copy every read pays the
//     wire to the primary and queues on its processor-shared CPU; with N
//     read replicas the declared reads route to the nearest live member,
//     so most reads are node-local and the service cost spreads over
//     N+1 machines.
//   - Part B, availability: with strong-mode replication, a writer keeps
//     incrementing through a primary crash.  The freshest surviving
//     replica is promoted under the same handle, and every acknowledged
//     increment must still be in the final value — strong mode loses no
//     acked writes.

// ReplicaConfig parameterizes the experiment.  Fields are used as given:
// start from defaultReplicaConfig, the values the registry runs.
type ReplicaConfig struct {
	Seed      int64   // simulation seed
	Nodes     int     // uniform cluster size
	ReadsEach int     // reads each reader performs
	ReadFlops float64 // modeled CPU per read (service-bound)

	Writes     int // part B: increments to push through the crash
	CrashAfter int // part B: crash the primary after this many acks
}

// defaultReplicaConfig is the experiment as committed in
// BENCH_replica.json.
func defaultReplicaConfig(seed int64) ReplicaConfig {
	return ReplicaConfig{
		Seed:       seed,
		Nodes:      6,
		ReadsEach:  40,
		ReadFlops:  2e6,
		Writes:     30,
		CrashAfter: 10,
	}
}

// ReplicaPoint is one cell of the part-A throughput sweep.
type ReplicaPoint struct {
	N          int     // read replicas (0 = unreplicated baseline)
	Mode       string  // "strong", "eventual", or "none" for the baseline
	Reads      int     // total reads performed
	ElapsedUs  int64   // virtual time for all readers to finish
	Throughput float64 // reads per virtual second
	HitRatio   float64 // fraction of reads served by a replica
}

// ReplicaAvailability is the part-B outcome.
type ReplicaAvailability struct {
	Victim      string // crashed primary
	NewPrimary  string // where the handle points after promotion
	Acked       int    // increments acknowledged to the writer
	Final       int    // counter value read back at the end
	LostWrites  int    // max(0, Acked-Final): must be 0
	Promotions  float64
	PromotionUs float64 // mean promotion latency
}

// ReplicaResult is the whole experiment.
type ReplicaResult struct {
	Config       ReplicaConfig
	Points       []ReplicaPoint
	SpeedupAtMax float64 // strong N=4 throughput over the N=0 baseline
	Availability ReplicaAvailability
}

// runReplicaPoint measures one (n, mode) cell on a fresh cluster.  The
// store is pinned to node01 so the baseline is genuinely remote for all
// but one reader (node00 hosts the application and the directory).
func runReplicaPoint(cfg ReplicaConfig, n int, mode jsymphony.ReplicaMode) ReplicaPoint {
	env := idleCluster(cfg.Nodes, cfg.Seed)
	pt := ReplicaPoint{N: n, Mode: "none"}
	if n > 0 {
		pt.Mode = string(mode)
	}
	env.RunMain("", func(js *jsymphony.JS) {
		js.Sleep(500 * time.Millisecond)
		cb := js.NewCodebase()
		must(cb.Add(kv.StoreClass))
		must(cb.Add(kv.ReaderClass))
		must(cb.LoadNodes(env.Nodes()...))

		home, err := js.NewNamedNode("node01")
		must(err)
		store, err := js.NewObject(kv.StoreClass, home, nil)
		must(err)
		_, err = store.SInvoke("Init", cfg.ReadFlops)
		must(err)
		_, err = store.SInvoke("Put", "hot", 7)
		must(err)
		if n > 0 {
			must(store.Replicate(jsymphony.ReplicaPolicy{
				N: n, Mode: mode, Reads: kv.ReadMethods(),
			}))
		}
		ref, err := store.Ref()
		must(err)

		readers := make([]*jsymphony.Object, cfg.Nodes)
		for i, node := range env.Nodes() {
			vn, err := js.NewNamedNode(node)
			must(err)
			readers[i], err = js.NewObject(kv.ReaderClass, vn, nil)
			must(err)
		}
		start := js.Now()
		handles := make([]*jsymphony.ResultHandle, len(readers))
		for i, r := range readers {
			handles[i], err = r.AInvoke("Run", ref, "hot", cfg.ReadsEach)
			must(err)
		}
		for i, h := range handles {
			got, err := h.Result()
			must(err)
			rep := got.(kv.ReadReport)
			if rep.Sum != cfg.ReadsEach*7 {
				panic(fmt.Sprintf("experiments: replica reader %d read wrong data: %+v", i, rep))
			}
			pt.Reads += rep.Reads
		}
		pt.ElapsedUs = (js.Now() - start).Microseconds()
	})
	pt.Throughput = float64(pt.Reads) / (float64(pt.ElapsedUs) / 1e6)
	reg := env.World().Metrics()
	hits := reg.Counter("js_replica_read_hits_total").Value()
	prim := reg.Counter("js_replica_read_primary_total").Value()
	if hits+prim > 0 {
		pt.HitRatio = float64(hits) / float64(hits+prim)
	}
	return pt
}

// runReplicaAvailability runs part B on a fresh cluster.
func runReplicaAvailability(cfg ReplicaConfig) ReplicaAvailability {
	env := idleCluster(cfg.Nodes, cfg.Seed)
	env.SetRMIPolicy(retryPolicy(4))
	inj, err := env.InstallChaos(&jsymphony.ChaosSpec{}, cfg.Seed)
	must(err)
	res := ReplicaAvailability{Victim: "node01"}
	env.RunMain("", func(js *jsymphony.JS) {
		js.Sleep(500 * time.Millisecond)
		loadStore(js, env)
		home, err := js.NewNamedNode(res.Victim)
		must(err)
		store, err := js.NewObject(kv.StoreClass, home, nil)
		must(err)
		_, err = store.SInvoke("Init", 0.0)
		must(err)
		must(store.Replicate(jsymphony.ReplicaPolicy{
			N: 2, Mode: jsymphony.ReplicaStrong, Reads: kv.ReadMethods(),
		}))
		for i := 0; i < cfg.Writes; i++ {
			if _, err := store.SInvoke("Add", "hot", 1); err != nil {
				panic(fmt.Sprintf("experiments: replica write %d: %v", i, err))
			}
			res.Acked++
			if res.Acked == cfg.CrashAfter {
				f, err := jsymphony.ParseChaosFault("crash:" + res.Victim)
				must(err)
				must(inj.Inject(f))
			}
		}
		got, err := store.SInvoke("Get", "hot")
		must(err)
		res.Final = got.(int)
		if node, err := store.NodeName(); err == nil {
			res.NewPrimary = node
		}
	})
	if res.Acked > res.Final {
		res.LostWrites = res.Acked - res.Final
	}
	reg := env.World().Metrics()
	res.Promotions = float64(reg.Counter("js_replica_promotions_total").Value())
	if h := reg.Histogram("js_replica_promotion_us", nil); h.Count() > 0 {
		res.PromotionUs = float64(h.Sum()) / float64(h.Count())
	}
	return res
}

// Replica runs the full experiment: the throughput sweep over replica
// counts and modes, then the crash-availability run.
func Replica(cfg ReplicaConfig) ReplicaResult {
	res := ReplicaResult{Config: cfg}
	res.Points = append(res.Points,
		runReplicaPoint(cfg, 0, jsymphony.ReplicaStrong),
		runReplicaPoint(cfg, 2, jsymphony.ReplicaStrong),
		runReplicaPoint(cfg, 4, jsymphony.ReplicaStrong),
		runReplicaPoint(cfg, 4, jsymphony.ReplicaEventual),
	)
	var base, best float64
	for _, pt := range res.Points {
		if pt.N == 0 {
			base = pt.Throughput
		}
		if pt.N == 4 && pt.Mode == string(jsymphony.ReplicaStrong) {
			best = pt.Throughput
		}
	}
	if base > 0 {
		res.SpeedupAtMax = best / base
	}
	res.Availability = runReplicaAvailability(cfg)
	return res
}

// WriteText renders the experiment for the terminal.
func (res ReplicaResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Part A — read throughput, %d readers x %d reads (virtual time)\n",
		res.Config.Nodes, res.Config.ReadsEach)
	fmt.Fprintf(w, "  %-4s %-9s %10s %12s %9s\n", "N", "MODE", "ELAPSED", "READS/S", "HIT%")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "  %-4d %-9s %9.2fms %12.0f %8.1f%%\n",
			pt.N, pt.Mode, float64(pt.ElapsedUs)/1000, pt.Throughput, pt.HitRatio*100)
	}
	fmt.Fprintf(w, "  speedup at N=4 (strong) over single copy: %.2fx\n\n", res.SpeedupAtMax)
	a := res.Availability
	fmt.Fprintf(w, "Part B — strong-mode availability through a primary crash\n")
	fmt.Fprintf(w, "  victim %s -> new primary %s\n", a.Victim, a.NewPrimary)
	fmt.Fprintf(w, "  acked %d, final %d, lost %d (promotions %.0f, mean %.0fus)\n",
		a.Acked, a.Final, a.LostWrites, a.Promotions, a.PromotionUs)
}

// Claims evaluates the subsystem's headline claims.
func (res ReplicaResult) Claims() ([]string, bool) {
	var cl claims
	check := cl.check
	check(res.SpeedupAtMax >= 2,
		"N=4 read replicas deliver >= 2x single-copy throughput (got %.2fx)", res.SpeedupAtMax)
	var hit4 float64
	for _, pt := range res.Points {
		if pt.N == 4 && pt.Mode == string(jsymphony.ReplicaStrong) {
			hit4 = pt.HitRatio
		}
	}
	check(hit4 > 0.5, "at N=4 most reads are replica-served (hit ratio %.2f)", hit4)
	check(res.Availability.LostWrites == 0,
		"strong mode lost no acked writes through the crash (acked %d, final %d)",
		res.Availability.Acked, res.Availability.Final)
	check(res.Availability.Promotions >= 1,
		"the crash was survived by promotion, not checkpoint restore (%.0f promotions)",
		res.Availability.Promotions)
	check(res.Availability.NewPrimary != "" && res.Availability.NewPrimary != res.Availability.Victim,
		"the handle points away from the dead node (now %s)", res.Availability.NewPrimary)
	return cl.result()
}
