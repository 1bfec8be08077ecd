package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"jsymphony"
	"jsymphony/workloads/kv"
)

// The slo experiment exercises Observability v2 end to end on one
// Zipf-skewed keyed workload (DESIGN.md §11):
//
//   - Request-level SLOs: keyed writes and coalesced/replica-routed
//     reads are classified and measured against declared objectives;
//     the report carries p50/p99/p999, attainment, and burn rate per
//     class in virtual time.
//   - Causal critical-path tracing: every classified request's latency
//     is decomposed into queue/retry/service/lease-wait/wire segments;
//     the aggregate breakdown must attribute >= 95% of end-to-end time
//     and names the dominant segment.
//   - Per-key heat telemetry: a planted hot key (hit every HotEvery-th
//     op on top of the Zipf tail) must surface as the globally hottest
//     entry in the shard group's space-saving sketches.
//   - Flight recorder: a scheduled mid-run slowdown fault triggers an
//     automatic bounded dump whose reason names the fault.
//
// Everything is virtual-time only, so a fixed seed reproduces the JSON
// artifact byte for byte.

// SloConfig parameterizes the experiment.  Fields are used as given:
// start from defaultSloConfig, the values the registry runs.
type SloConfig struct {
	Seed     int64 // simulation seed
	Nodes    int   // uniform cluster size
	Shards   int   // shard count
	Keys     int   // distinct cold keys in the Zipf tail
	Ops      int   // keyed operations issued
	Batch    int   // concurrent ops per batch
	HotEvery int   // every n-th op hits the planted hot key

	ReadTarget  time.Duration // declared read p99 objective
	WriteTarget time.Duration // declared write p99 objective

	ReadFlops  float64 // modeled CPU per read
	WriteFlops float64 // modeled CPU per write
}

// defaultSloConfig is the experiment as committed in BENCH_slo.json.
func defaultSloConfig(seed int64) SloConfig {
	return SloConfig{
		Seed:        seed,
		Nodes:       6,
		Shards:      3,
		Keys:        48,
		Ops:         360,
		Batch:       6,
		HotEvery:    3,
		ReadTarget:  80 * time.Millisecond,
		WriteTarget: 40 * time.Millisecond,
		ReadFlops:   5e5,
		WriteFlops:  1e6,
	}
}

// SloBreakdown is the aggregate critical-path decomposition over every
// classified request.
type SloBreakdown struct {
	Requests     int              `json:"requests"`
	TotalUs      int64            `json:"total_us"`
	AttributedUs int64            `json:"attributed_us"`
	Coverage     float64          `json:"coverage"`
	ByKindUs     map[string]int64 `json:"by_kind_us"`
	Dominant     string           `json:"dominant"`
}

// classifiedBreakdown decomposes every classified request env traced.
func classifiedBreakdown(env *jsymphony.Env) SloBreakdown {
	bd := jsymphony.AggregateCritPath(env.Spans(), func(s *jsymphony.Span) bool {
		return s.Class != ""
	})
	out := SloBreakdown{
		Requests:     bd.Requests,
		TotalUs:      bd.Total.Microseconds(),
		AttributedUs: bd.Attributed.Microseconds(),
		Coverage:     bd.Coverage,
		ByKindUs:     make(map[string]int64, len(bd.ByKind)),
		Dominant:     bd.Dominant,
	}
	for kind, d := range bd.ByKind {
		out.ByKindUs[kind] = d.Microseconds()
	}
	return out
}

// SloResult is the whole experiment.
type SloResult struct {
	Config      SloConfig             `json:"config"`
	Report      jsymphony.SLOReport   `json:"report"`
	Breakdown   SloBreakdown          `json:"breakdown"`
	Heat        []jsymphony.ShardHeat `json:"heat"`
	HotKey      string                `json:"hot_key"`
	HotKeyCount int64                 `json:"hot_key_count"`
	HotKeyTop   bool                  `json:"hot_key_top"` // globally hottest entry
	Dumps       int                   `json:"dumps"`       // flight dumps preserved
	DumpReasons []string              `json:"dump_reasons"`
	Exact       bool                  `json:"exact"` // hot key read back its last write

	// Flight carries the preserved dumps themselves (events, spans,
	// metrics, SLO state at trigger time).  They are a debugging
	// artifact, not part of the benchmark result, so they are excluded
	// from the JSON artifact and written separately (SideOutput).
	Flight []jsymphony.FlightDump `json:"-"`
}

const sloHotKey = "hot"

func sloColdKey(i uint64) string { return fmt.Sprintf("k%03d", i) }

// Slo runs the full experiment.
func Slo(cfg SloConfig) SloResult {
	res := SloResult{Config: cfg, HotKey: sloHotKey}

	env := idleCluster(cfg.Nodes, cfg.Seed)

	// A mid-run slowdown on one worker: the owner returns and takes 60%
	// of the CPU for a second.  The injected fault is what pins the
	// first flight dump.
	spec, err := jsymphony.ParseChaos("slow:node02:0.6@2500ms+1s")
	must(err)
	_, err = env.InstallChaos(spec, cfg.Seed)
	must(err)

	env.ArmFlightRecorder()
	must(env.DeclareSLO(jsymphony.SLO{
		Class: jsymphony.SLOClassRead, Target: cfg.ReadTarget, Percentile: 99,
	}))
	must(env.DeclareSLO(jsymphony.SLO{
		Class: jsymphony.SLOClassWrite, Target: cfg.WriteTarget, Percentile: 99,
	}))

	env.RunMain("", func(js *jsymphony.JS) {
		js.Sleep(500 * time.Millisecond)
		loadStore(js, env)

		g, err := js.NewShardGroup("kv", kv.StoreClass, jsymphony.ShardSpec{
			Shards: cfg.Shards,
			Replication: &jsymphony.ReplicaPolicy{
				N: 1, Mode: jsymphony.ReplicaStrong, Reads: kv.ReadMethods(),
			},
			InitMethod: "InitRW",
			InitArgs:   []any{cfg.ReadFlops, cfg.WriteFlops},
		})
		must(err)

		// Zipf tail over the cold keys; every HotEvery-th op hits the
		// planted hot key on top of it.
		rng := rand.New(rand.NewSource(cfg.Seed))
		zipf := rand.NewZipf(rng, 1.1, 1.0, uint64(cfg.Keys-1))
		lastHot := -1
		for base := 0; base < cfg.Ops; base += cfg.Batch {
			n := cfg.Batch
			if base+n > cfg.Ops {
				n = cfg.Ops - base
			}
			handles := make([]*jsymphony.ResultHandle, n)
			for j := 0; j < n; j++ {
				i := base + j
				key := sloColdKey(zipf.Uint64())
				if i%cfg.HotEvery == 0 {
					key = sloHotKey
				}
				if i%4 == 3 {
					handles[j] = g.AInvoke(key, "Get", key)
				} else {
					handles[j] = g.AInvoke(key, "Put", key, i)
					if key == sloHotKey {
						lastHot = i
					}
				}
			}
			for i, h := range handles {
				if _, err := h.Result(); err != nil {
					panic(fmt.Sprintf("experiments: slo op %d: %v", base+i, err))
				}
			}
		}

		got, err := g.Invoke(sloHotKey, "Get", sloHotKey)
		must(err)
		res.Exact = got.(int) == lastHot

		res.Heat = g.Heat(5)
		g.PublishHeat(5)
	})

	res.Report = env.SLOReport()

	res.Breakdown = classifiedBreakdown(env)

	// The planted hot key must be the globally hottest sketch entry.
	for _, sh := range res.Heat {
		for _, e := range sh.Keys {
			if e.Key == sloHotKey {
				res.HotKeyCount = e.Count
			}
		}
	}
	res.HotKeyTop = res.HotKeyCount > 0
	for _, sh := range res.Heat {
		for _, e := range sh.Keys {
			if e.Key != sloHotKey && e.Count > res.HotKeyCount {
				res.HotKeyTop = false
			}
		}
	}

	if rec := env.FlightRecorder(); rec != nil {
		res.Dumps = rec.Len()
		res.Flight = rec.Dumps()
		for _, d := range res.Flight {
			res.DumpReasons = append(res.DumpReasons, d.Reason)
		}
	}
	return res
}

// WriteText renders the experiment for the terminal.
func (res SloResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "SLO attainment (%d ops, %d shards, virtual time)\n",
		res.Config.Ops, res.Config.Shards)
	for _, line := range strings.Split(strings.TrimRight(res.Report.Format(), "\n"), "\n") {
		fmt.Fprintf(w, "  %s\n", line)
	}
	b := res.Breakdown
	fmt.Fprintf(w, "\nCritical-path decomposition over %d classified requests\n", b.Requests)
	kinds := make([]string, 0, len(b.ByKindUs))
	for k := range b.ByKindUs {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		us := b.ByKindUs[k]
		share := 0.0
		if b.AttributedUs > 0 {
			share = 100 * float64(us) / float64(b.AttributedUs)
		}
		fmt.Fprintf(w, "  %-10s %10s  %5.1f%%\n", k, time.Duration(us)*time.Microsecond, share)
	}
	fmt.Fprintf(w, "  coverage: %.1f%% of %s attributed; dominant: %s\n",
		100*b.Coverage, time.Duration(b.TotalUs)*time.Microsecond, b.Dominant)
	fmt.Fprintf(w, "\nHot keys (top entries per shard, space-saving counts)\n")
	for _, sh := range res.Heat {
		for _, e := range sh.Keys {
			fmt.Fprintf(w, "  %-16s %-8s %6d\n", sh.Shard, e.Key, e.Count)
		}
	}
	fmt.Fprintf(w, "  planted %q hottest overall: %v (count %d)\n",
		res.HotKey, res.HotKeyTop, res.HotKeyCount)
	fmt.Fprintf(w, "\nFlight recorder: %d dump(s) preserved\n", res.Dumps)
	for _, r := range res.DumpReasons {
		fmt.Fprintf(w, "  - %s\n", r)
	}
}

// SideOutput offers the preserved flight dumps (the full observability
// snapshots taken at each trigger) for -flightout.
func (res SloResult) SideOutput(p Params) (path, what string, v any) {
	dumps := res.Flight
	if dumps == nil {
		dumps = []jsymphony.FlightDump{} // encode as [], not null
	}
	return p.FlightOut, "flight dumps", dumps
}

// Claims evaluates the subsystem's headline claims.
func (res SloResult) Claims() ([]string, bool) {
	var cl claims
	check := cl.check
	var readCount, writeCount int64
	for _, c := range res.Report.Classes {
		switch c.Class {
		case jsymphony.SLOClassRead:
			readCount = c.Count
		case jsymphony.SLOClassWrite:
			writeCount = c.Count
		}
	}
	check(readCount > 0 && writeCount > 0,
		"both request classes measured (read=%d write=%d)", readCount, writeCount)
	check(res.Breakdown.Coverage >= 0.95,
		"critical path attributes >= 95%% of classified latency (got %.1f%%)",
		100*res.Breakdown.Coverage)
	check(res.Breakdown.Dominant != "",
		"decomposition names a dominant segment (%s)", res.Breakdown.Dominant)
	check(res.HotKeyTop,
		"planted hot key %q is the hottest sketch entry (count %d)",
		res.HotKey, res.HotKeyCount)
	var chaosDump, breachDump bool
	for _, r := range res.DumpReasons {
		chaosDump = chaosDump || strings.HasPrefix(r, "chaos:")
		breachDump = breachDump || strings.HasPrefix(r, "slo:")
	}
	check(chaosDump,
		"mid-run fault preserved a flight dump (%d dump(s) total)", res.Dumps)
	check(breachDump,
		"SLO burn-rate breach preserved a flight dump (%d dump(s) total)", res.Dumps)
	check(res.Exact, "hot key read back its last written value")
	return cl.result()
}
