package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"jsymphony"
	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/workloads/kv"
	"jsymphony/workloads/matmul"
)

// The wire experiment quantifies the zero-alloc wire path (DESIGN.md
// §15): the schema-aware pooled codec on the RMI hot path versus the
// gob-era encoding of exactly the same traffic.  Two sections:
//
//   - Codec microbenchmarks: representative protocol payloads are
//     encoded and decoded by both paths; encoded size and allocations
//     per operation are recorded.  Both are deterministic (allocation
//     counts come from testing.AllocsPerRun on a deterministic code
//     path), so they live in the committed BENCH_wire.json.
//   - End-to-end twin runs: the kv read fleet and the Figure 5 matrix
//     multiplication run twice on identical simulated clusters with
//     the same seed — once pinned to gob (rmi.SetGobOnly), once on the
//     wire path — and are compared on virtual makespan and bytes put
//     on the wire.  Encoded bytes feed the simulated link and
//     serialization cost models, so smaller bodies are faster *in
//     virtual time*, deterministically.
//
// Wall-clock encode/decode speed is real but nondeterministic, so it
// stays out of the JSON: MeasureWireSpeed reports it on jsbench stdout
// and TestWireSpeedClaim gates the >=2x claim in CI.

// WireConfig parameterizes the experiment.
type WireConfig struct {
	Seed int64 // simulation seed
}

// CodecStat compares the two codecs on one representative payload.
type CodecStat struct {
	Payload       string  // what was encoded
	WireBytes     int     // encoded size, wire path
	GobBytes      int     // encoded size, gob path
	WireEncAllocs float64 // allocations per Marshal, wire path
	GobEncAllocs  float64 // allocations per Marshal, gob path
	WireDecAllocs float64 // allocations per Unmarshal, wire path
	GobDecAllocs  float64 // allocations per Unmarshal, gob path
}

// WireE2E compares the twin runs of one workload.
type WireE2E struct {
	Workload      string
	GobElapsedUs  int64 // virtual makespan, gob-pinned run
	WireElapsedUs int64 // virtual makespan, wire run
	GobBytesOut   int64 // bytes put on the wire, gob-pinned run
	WireBytesOut  int64 // bytes put on the wire, wire run
	SpeedupPct    float64
	BytesCutPct   float64
	Verified      bool // both runs produced the reference answer
}

// WireResult is the whole experiment.
type WireResult struct {
	Config WireConfig
	Codec  []CodecStat
	E2E    []WireE2E

	// Speed is the wall-clock section (MeasureWireSpeed): real time, so
	// it is rendered on the terminal but excluded from the artifact.
	Speed []WireSpeed `json:"-"`
}

// wirePayloads are the representative bodies the microbenchmarks
// measure: a typical request message, a control-plane batch, a mixed
// argument vector, a bulk float32 operand block, and a replica set.
func wirePayloads() []struct {
	Name string
	V    any
	New  func() any // fresh decode target
} {
	msg := &rmi.Message{
		From: "n03", To: "n07", Kind: rmi.KindRequest, ID: 4242,
		Service: "oas.pub", Method: "invoke",
		Body: make([]byte, 96), Idem: true,
	}
	var batch rmi.Batch
	for i := 0; i < 16; i++ {
		batch.MustAppend(&rmi.Message{
			From: "n00", To: "n01", Kind: rmi.KindOneWay, ID: uint64(i),
			Service: "oas.pub", Method: "replicaAuthRenew",
		})
	}
	args := []any{int(7), "get", []float64{1.5, 2.5}, true, time.Millisecond}
	operands := make([]float32, 4096)
	for i := range operands {
		operands[i] = 1.0 / float32(i+1)
	}
	set := replica.Set{
		Primary: "n02", Replicas: []string{"n04", "n05"},
		Mode: replica.Strong, Lease: 250 * time.Millisecond,
		Reads: []string{"Get", "Sum"},
	}
	return []struct {
		Name string
		V    any
		New  func() any
	}{
		{"message", msg, func() any { return new(rmi.Message) }},
		{"batch16", batch, func() any { return new(rmi.Batch) }},
		{"args", args, func() any { return new([]any) }},
		{"float32x4096", operands, func() any { return new([]float32) }},
		{"replicaSet", set, func() any { return new(replica.Set) }},
	}
}

// measureCodec runs the microbenchmarks for one payload.
func measureCodec(name string, v any, fresh func() any) CodecStat {
	st := CodecStat{Payload: name}

	prev := rmi.SetGobOnly(false)
	wireEnc := rmi.MustMarshal(v)
	st.WireBytes = len(wireEnc)
	st.WireEncAllocs = testing.AllocsPerRun(64, func() { rmi.MustMarshal(v) })
	st.WireDecAllocs = testing.AllocsPerRun(64, func() {
		if err := rmi.Unmarshal(wireEnc, fresh()); err != nil {
			panic(err)
		}
	})

	rmi.SetGobOnly(true)
	gobEnc := rmi.MustMarshal(v)
	st.GobBytes = len(gobEnc)
	st.GobEncAllocs = testing.AllocsPerRun(64, func() { rmi.MustMarshal(v) })
	st.GobDecAllocs = testing.AllocsPerRun(64, func() {
		if err := rmi.Unmarshal(gobEnc, fresh()); err != nil {
			panic(err)
		}
	})
	rmi.SetGobOnly(prev)
	return st
}

// runWireE2E executes one workload twice — gob-pinned, then wire — on
// identical clusters and compares virtual time and wire bytes.
func runWireE2E(cfg WireConfig, workload string) WireE2E {
	pt := WireE2E{Workload: workload, Verified: true}
	run := func(gobOnly bool) (elapsedUs, bytesOut int64, verified bool) {
		prev := rmi.SetGobOnly(gobOnly)
		defer rmi.SetGobOnly(prev)
		switch workload {
		case "kv":
			env := idleCluster(8, cfg.Seed)
			env.RunMain("", func(js *jsymphony.JS) {
				kcfg := kv.FleetConfig{Nodes: 8, Readers: 8, ReadsPerReader: 64}
				start := js.Now()
				st, err := kv.RunFleet(js, kcfg)
				must(err)
				elapsedUs = (js.Now() - start).Microseconds()
				wantSum := 0
				for i := 0; i < kcfg.Readers; i++ {
					wantSum += kcfg.ReadsPerReader * (i + 1)
				}
				verified = st.Sum == wantSum
			})
			bytesOut = sumCounterPrefix(env, "js_rmi_bytes_out_total")
		case "matmul":
			env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.Night, cfg.Seed, jsymphony.EnvOptions{})
			env.RunMain("", func(js *jsymphony.JS) {
				mcfg := matmul.Config{N: 400, Nodes: 6, Model: true, Seed: cfg.Seed}
				start := js.Now()
				_, err := matmul.Run(js, mcfg)
				must(err)
				elapsedUs = (js.Now() - start).Microseconds()
				verified = true // Model mode charges the cost model; RunFleet covers answers
			})
			bytesOut = sumCounterPrefix(env, "js_rmi_bytes_out_total")
		default:
			panic("experiments: wire: unknown workload " + workload)
		}
		return elapsedUs, bytesOut, verified
	}
	var okGob, okWire bool
	pt.GobElapsedUs, pt.GobBytesOut, okGob = run(true)
	pt.WireElapsedUs, pt.WireBytesOut, okWire = run(false)
	pt.Verified = okGob && okWire
	if pt.WireElapsedUs > 0 {
		pt.SpeedupPct = math.Round(10000*(float64(pt.GobElapsedUs)-float64(pt.WireElapsedUs))/float64(pt.GobElapsedUs)) / 100
	}
	if pt.GobBytesOut > 0 {
		pt.BytesCutPct = math.Round(10000*(float64(pt.GobBytesOut)-float64(pt.WireBytesOut))/float64(pt.GobBytesOut)) / 100
	}
	return pt
}

// sumCounterPrefix totals every counter whose labeled name starts with
// prefix (per-node instruments sum to the cluster figure).
func sumCounterPrefix(env *jsymphony.Env, prefix string) int64 {
	var total int64
	for _, c := range env.World().Metrics().Snapshot().Counters {
		if strings.HasPrefix(c.Name, prefix) {
			total += c.Value
		}
	}
	return total
}

// Wire runs the full experiment.
func Wire(cfg WireConfig) WireResult {
	res := WireResult{Config: cfg}
	for _, p := range wirePayloads() {
		res.Codec = append(res.Codec, measureCodec(p.Name, p.V, p.New))
	}
	for _, workload := range []string{"kv", "matmul"} {
		res.E2E = append(res.E2E, runWireE2E(cfg, workload))
	}
	return res
}

// WireSpeed is one payload's wall-clock encode+decode comparison.
// Real time, so never committed — stdout and test gates only.
type WireSpeed struct {
	Payload  string
	WireNs   float64 // encode+decode ns/op, wire path
	GobNs    float64 // encode+decode ns/op, gob path
	Speedup  float64 // GobNs / WireNs
	WireOpsN int     // iterations measured
}

// MeasureWireSpeed times encode+decode round trips on the wall clock
// for every microbenchmark payload.
func MeasureWireSpeed() []WireSpeed {
	var out []WireSpeed
	for _, p := range wirePayloads() {
		time1 := func(gobOnly bool) (nsPerOp float64, iters int) {
			prev := rmi.SetGobOnly(gobOnly)
			defer rmi.SetGobOnly(prev)
			enc := rmi.MustMarshal(p.V)
			const n = 2000
			start := time.Now() //jsvet:allow walltime wall-clock speed measurement; result goes to stdout, never into the deterministic artifact
			for i := 0; i < n; i++ {
				rmi.MustMarshal(p.V)
				if err := rmi.Unmarshal(enc, p.New()); err != nil {
					panic(err)
				}
			}
			return float64(time.Since(start).Nanoseconds()) / n, n //jsvet:allow walltime wall-clock speed measurement; result goes to stdout, never into the deterministic artifact
		}
		s := WireSpeed{Payload: p.Name}
		s.GobNs, _ = time1(true)
		s.WireNs, s.WireOpsN = time1(false)
		if s.WireNs > 0 {
			s.Speedup = s.GobNs / s.WireNs
		}
		out = append(out, s)
	}
	return out
}

// WriteText renders the experiment for the terminal.
func (res WireResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Codec microbenchmarks (seed-free; allocations per op)\n")
	fmt.Fprintf(w, "  %-14s %10s %10s %9s %9s %9s %9s\n",
		"PAYLOAD", "WIRE-B", "GOB-B", "W-ENC-A", "G-ENC-A", "W-DEC-A", "G-DEC-A")
	for _, c := range res.Codec {
		fmt.Fprintf(w, "  %-14s %10d %10d %9.1f %9.1f %9.1f %9.1f\n",
			c.Payload, c.WireBytes, c.GobBytes,
			c.WireEncAllocs, c.GobEncAllocs, c.WireDecAllocs, c.GobDecAllocs)
	}
	fmt.Fprintf(w, "\nEnd-to-end twin runs (virtual time; gob-pinned vs wire)\n")
	fmt.Fprintf(w, "  %-8s %12s %12s %8s %12s %12s %8s %5s\n",
		"WORKLOAD", "GOB-US", "WIRE-US", "SPEEDUP", "GOB-BYTES", "WIRE-BYTES", "CUT", "OK")
	for _, e := range res.E2E {
		fmt.Fprintf(w, "  %-8s %12d %12d %7.2f%% %12d %12d %7.2f%% %5v\n",
			e.Workload, e.GobElapsedUs, e.WireElapsedUs, e.SpeedupPct,
			e.GobBytesOut, e.WireBytesOut, e.BytesCutPct, e.Verified)
	}
	if res.Speed == nil {
		return
	}
	fmt.Fprintf(w, "\nWall-clock encode+decode (this machine, not committed)\n")
	fmt.Fprintf(w, "  %-14s %10s %10s %9s\n", "PAYLOAD", "WIRE-NS", "GOB-NS", "SPEEDUP")
	for _, s := range res.Speed {
		fmt.Fprintf(w, "  %-14s %10.0f %10.0f %8.1fx\n", s.Payload, s.WireNs, s.GobNs, s.Speedup)
	}
}

// Claims evaluates the headline claims on the deterministic sections.
func (res WireResult) Claims() ([]string, bool) {
	var cl claims
	check := cl.check
	for _, c := range res.Codec {
		check(c.GobEncAllocs >= 5*c.WireEncAllocs || c.WireEncAllocs == 0,
			"%s: wire encode allocates >=5x less than gob (%.1f vs %.1f allocs/op)",
			c.Payload, c.WireEncAllocs, c.GobEncAllocs)
		check(c.WireBytes < c.GobBytes,
			"%s: wire encoding smaller than gob (%d vs %d bytes)",
			c.Payload, c.WireBytes, c.GobBytes)
	}
	for _, e := range res.E2E {
		check(e.Verified, "%s: both runs produced the reference behaviour", e.Workload)
		check(e.WireElapsedUs < e.GobElapsedUs,
			"%s: wire run faster in virtual time (%dus vs %dus, %.2f%%)",
			e.Workload, e.WireElapsedUs, e.GobElapsedUs, e.SpeedupPct)
		check(e.WireBytesOut < e.GobBytesOut,
			"%s: wire run put fewer bytes on the wire (%d vs %d, %.2f%%)",
			e.Workload, e.WireBytesOut, e.GobBytesOut, e.BytesCutPct)
	}
	return cl.result()
}
