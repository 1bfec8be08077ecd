package rmi

import (
	"testing"
	"time"
)

// benchMessage is a typical hot-path request: short names, a ~100-byte
// body.
func benchMessage() *Message {
	return &Message{
		From: "n03", To: "n07", Kind: KindRequest, ID: 4242,
		Service: "oas.pub", Method: "invoke",
		Body: make([]byte, 96), Idem: true,
	}
}

func benchArgs() []any {
	return []any{int(7), "get", []float64{1.5, 2.5}, true, time.Millisecond}
}

// TestWireAllocCeiling pins the allocation budget of the hot path: one
// allocation per encode (the returned buffer — scratch is pooled) and a
// small fixed count per decode (the target and its strings; the body
// aliases the input).
// A regression that reintroduces reflection or per-field buffers fails
// here, not in a profile three PRs later.
func TestWireAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime randomly bypasses sync.Pool puts, so allocation budgets do not hold under it")
	}
	msg := benchMessage()
	enc := MustMarshal(msg)

	if got := testing.AllocsPerRun(100, func() { MustMarshal(msg) }); got > 1 {
		t.Errorf("message encode: %.1f allocs/op, want <= 1", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		var out Message
		if err := Unmarshal(enc, &out); err != nil {
			t.Fatal(err)
		}
	}); got > 5 {
		t.Errorf("message decode: %.1f allocs/op, want <= 5", got)
	}

	args := benchArgs()
	encA := MustMarshal(args)
	// 2, not 1: boxing the []any into Marshal's any parameter costs a
	// slice-header allocation at this call boundary.  Protocol structs
	// carry their args as a []any field and never pay it.
	if got := testing.AllocsPerRun(100, func() { MustMarshal(args) }); got > 2 {
		t.Errorf("args encode: %.1f allocs/op, want <= 2", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		var out []any
		if err := Unmarshal(encA, &out); err != nil {
			t.Fatal(err)
		}
	}); got > 10 {
		t.Errorf("args decode: %.1f allocs/op, want <= 10", got)
	}
}

func BenchmarkWireEncodeMessage(b *testing.B) {
	msg := benchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustMarshal(msg)
	}
}

func BenchmarkWireDecodeMessage(b *testing.B) {
	enc := MustMarshal(benchMessage())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out Message
		if err := Unmarshal(enc, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeArgs(b *testing.B) {
	args := benchArgs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MustMarshal(args)
	}
}
