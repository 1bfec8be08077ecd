package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"jsymphony"
	"jsymphony/workloads/kv"
)

// Params carries jsbench's flags to an experiment.  An entry reads the
// fields it understands and ignores the rest.
type Params struct {
	Seed       int64  // every entry
	Sizes      []int  // fig5
	MaxNodes   int    // fig5, mandel
	Chaos      string // fig5
	MetricsOut string // fig5: side file of per-run metrics snapshots
	FlightOut  string // slo: side file of preserved flight dumps
}

// Result is what every experiment returns: it renders its terminal
// report and evaluates its PASS/FAIL claims (no lines and ok for an
// experiment that makes none).  Its JSON encoding is the entry's
// artifact.
type Result interface {
	WriteText(w io.Writer)
	Claims() (lines []string, ok bool)
}

// SideOutput is implemented by results that can write a second JSON
// file when the user names one: what describes v for the terminal, and
// an empty path means not requested.
type SideOutput interface {
	SideOutput(p Params) (path, what string, v any)
}

// Entry is one registered experiment.
type Entry struct {
	Name     string // jsbench -experiment value
	Banner   string // two-line heading
	Artifact string // committed result file, "BENCH_<Name>.json"; "" for none
	Run      func(Params) Result
}

// Registry lists every experiment in the order `jsbench -experiment all`
// runs them.
var Registry = []Entry{
	{
		Name: "fig5",
		Banner: "Figure 5 — JavaSymphony matrix multiplication on the simulated\n" +
			"13-workstation heterogeneous cluster (virtual execution times)",
		Run: func(p Params) Result {
			cfg := defaultFigure5Config(p.Seed)
			cfg.Chaos = p.Chaos
			if len(p.Sizes) > 0 {
				cfg.Sizes = p.Sizes
			}
			if p.MaxNodes > 0 {
				cfg.MaxNodes = p.MaxNodes
			}
			return Figure5Result{Chaos: p.Chaos, Points: Figure5(cfg)}
		},
	},
	{
		Name: "mandel",
		Banner: "E2 — compute-bound Mandelbrot on the simulated cluster\n" +
			"(contrast with Figure 5: tiny messages, so scaling holds on)",
		Run: func(p Params) Result { return Mandel(p.MaxNodes, p.Seed) },
	},
	{
		Name: "automigrate",
		Banner: "E3 — automatic object migration under owner contention\n" +
			"(a workstation owner returns mid-run and seizes 90% of the CPU)",
		Run: func(p Params) Result {
			off, on := E3(defaultE3Config(p.Seed))
			return E3Pair{Off: off, On: on}
		},
	},
	{
		Name: "recovery",
		Banner: "Recovery — checkpoint-based crash recovery overhead\n" +
			"(the OAS extension the paper defers to future work, §5.1/§7)",
		Run: func(p Params) Result { return Recovery(defaultRecoveryConfig(p.Seed)) },
	},
	{
		Name: "recover", Artifact: "BENCH_recover.json",
		Banner: "Recover — durable log-structured object store (internal/wal)\n" +
			"(group commit, incremental checkpoints, crash-consistent replay; DESIGN.md §13)",
		Run: func(p Params) Result { return Recover(defaultRecoverConfig(p.Seed)) },
	},
	{
		Name: "replica", Artifact: "BENCH_replica.json",
		Banner: "Replica — locality-aware read replication (internal/replica)\n" +
			"(read throughput by replica count; strong-mode crash availability)",
		Run: func(p Params) Result { return Replica(defaultReplicaConfig(p.Seed)) },
	},
	{
		Name: "shard", Artifact: "BENCH_shard.json",
		Banner: "Shard — consistent-hash key-space partitioning (internal/shard)\n" +
			"(write throughput by shard count; batched control-plane RMI)",
		Run: func(p Params) Result { return Shard(defaultShardConfig(p.Seed)) },
	},
	{
		Name: "slo", Artifact: "BENCH_slo.json",
		Banner: "SLO — request-level objectives, critical-path tracing, heat telemetry\n" +
			"(Observability v2: internal/slo, internal/trace, internal/heat, internal/flight)",
		Run: func(p Params) Result { return Slo(defaultSloConfig(p.Seed)) },
	},
	{
		Name: "serve", Artifact: "BENCH_serve.json",
		Banner: "Serve — open-loop overload with admission control and load shedding\n" +
			"(baseline vs shed replay of one seeded heavy-tailed arrival stream)",
		Run: func(p Params) Result { return Serve(defaultServeConfig(p.Seed)) },
	},
	{
		Name: "place", Artifact: "BENCH_place.json",
		Banner: "Place — static placement oracle (cmd/jsplace + internal/analysis/affinity)\n" +
			"(each placed workload twin-run: load-only vs committed co-location hints)",
		Run: func(p Params) Result { return Place(defaultPlaceConfig(p.Seed)) },
	},
	{
		Name: "wire", Artifact: "BENCH_wire.json",
		Banner: "Wire — zero-alloc schema-aware codec vs the gob baseline\n" +
			"(pooled binary wire path on the RMI hot path; DESIGN.md §15)",
		Run: func(p Params) Result {
			res := Wire(WireConfig{Seed: p.Seed})
			res.Speed = MeasureWireSpeed()
			return res
		},
	},
}

// encodeArtifact renders v the way every committed artifact is encoded:
// two-space indented JSON with a trailing newline.  Virtual times and
// counters only go in, so a fixed seed reproduces the bytes.
func encodeArtifact(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteArtifact writes v to path as a JSON artifact.  It encodes in
// memory first, so an encoding error leaves an existing file untouched;
// os.WriteFile reports a failed write or close with the path named.
func WriteArtifact(path string, v any) error {
	b, err := encodeArtifact(v)
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, b, 0o666)
}

// claims accumulates an experiment's PASS/FAIL lines.
type claims struct {
	lines  []string
	failed bool
}

func (c *claims) check(pass bool, format string, args ...any) {
	mark := "PASS"
	if !pass {
		mark, c.failed = "FAIL", true
	}
	c.lines = append(c.lines, mark+" "+fmt.Sprintf(format, args...))
}

func (c *claims) result() (lines []string, ok bool) { return c.lines, !c.failed }

// idleCluster boots the installation most experiments run on: n
// Ultra 10/300 workstations with no background load.
func idleCluster(n int, seed int64) *jsymphony.Env {
	return jsymphony.NewSimEnv(jsymphony.UniformCluster(jsymphony.Ultra10_300, n),
		jsymphony.IdleProfile, seed, jsymphony.EnvOptions{})
}

// loadStore ships the kv store class to every node of env.
func loadStore(js *jsymphony.JS, env *jsymphony.Env) {
	cb := js.NewCodebase()
	must(cb.Add(kv.StoreClass))
	must(cb.LoadNodes(env.Nodes()...))
}

// retryPolicy lets sync invocations ride out a fault window until
// detection and recovery repoint the handle.
func retryPolicy(retries int) jsymphony.RMIPolicy {
	return jsymphony.RMIPolicy{
		AttemptTimeout: 500 * time.Millisecond,
		Retries:        retries,
		Backoff:        50 * time.Millisecond,
		BackoffMax:     500 * time.Millisecond,
		Multiplier:     2,
	}
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
}
