package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"testing"
	"time"

	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
)

// The wire experiment quantifies the zero-alloc wire path (DESIGN.md
// §15): representative protocol payloads are encoded and decoded by
// rmi's codec and by a gob reference — the tag byte plus the gob stream
// the retired gob tier wrote, byte for byte — and encoded size and
// allocations per operation are recorded.  Both are deterministic
// (allocation counts come from testing.AllocsPerRun on a deterministic
// code path), so they live in the committed BENCH_wire.json.  This file
// is the repository's only non-test user of encoding/gob.
//
// Wall-clock encode/decode speed is real but nondeterministic, so it
// stays out of the JSON: MeasureWireSpeed reports it on jsbench stdout
// and TestWireSpeedClaim gates the >=2x claim in CI.

// WireConfig parameterizes the experiment.
type WireConfig struct {
	Seed int64 // recorded only: the codec section is seed-free
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

// WireResult is the whole experiment.
type WireResult struct {
	Config WireConfig
	Codec  []CodecStat

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

// The args payload carries a time.Duration inside []any, which gob
// must know by name.
func init() { gob.Register(time.Duration(0)) }

// gobFormat is the format tag the retired gob tier wrote ahead of its
// stream.
const gobFormat = 0x47

// gobMarshal and gobUnmarshal are the gob reference: the bodies and the
// allocations the gob tier produced.
func gobMarshal(v any) []byte {
	var buf bytes.Buffer
	buf.WriteByte(gobFormat)
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func gobUnmarshal(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data[1:])).Decode(v)
}

// measureCodec runs the microbenchmarks for one payload.
func measureCodec(name string, v any, fresh func() any) CodecStat {
	st := CodecStat{Payload: name}

	wireEnc := rmi.MustMarshal(v)
	st.WireBytes = len(wireEnc)
	st.WireEncAllocs = testing.AllocsPerRun(64, func() { rmi.MustMarshal(v) })
	st.WireDecAllocs = testing.AllocsPerRun(64, func() {
		if err := rmi.Unmarshal(wireEnc, fresh()); err != nil {
			panic(err)
		}
	})

	gobEnc := gobMarshal(v)
	st.GobBytes = len(gobEnc)
	st.GobEncAllocs = testing.AllocsPerRun(64, func() { gobMarshal(v) })
	st.GobDecAllocs = testing.AllocsPerRun(64, func() {
		if err := gobUnmarshal(gobEnc, fresh()); err != nil {
			panic(err)
		}
	})
	return st
}

// Wire runs the full experiment.
func Wire(cfg WireConfig) WireResult {
	res := WireResult{Config: cfg}
	for _, p := range wirePayloads() {
		res.Codec = append(res.Codec, measureCodec(p.Name, p.V, p.New))
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
		time1 := func(marshal func(any) []byte, unmarshal func([]byte, any) error) (nsPerOp float64, iters int) {
			enc := marshal(p.V)
			const n = 2000
			start := time.Now() //jsvet:allow walltime wall-clock speed measurement; result goes to stdout, never into the deterministic artifact
			for i := 0; i < n; i++ {
				marshal(p.V)
				if err := unmarshal(enc, p.New()); err != nil {
					panic(err)
				}
			}
			return float64(time.Since(start).Nanoseconds()) / n, n //jsvet:allow walltime wall-clock speed measurement; result goes to stdout, never into the deterministic artifact
		}
		s := WireSpeed{Payload: p.Name}
		s.GobNs, _ = time1(gobMarshal, gobUnmarshal)
		s.WireNs, s.WireOpsN = time1(rmi.MustMarshal, rmi.Unmarshal)
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
	return cl.result()
}
