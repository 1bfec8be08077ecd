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
