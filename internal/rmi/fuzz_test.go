package rmi

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"jsymphony/internal/rmi/wire"
)

// FuzzWireRoundTrip drives arbitrary field values through the full
// Marshal/Unmarshal stack — the Message codec, the Batch envelope, and
// the tagged any-value path — and demands exact identity.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add("a", "b", uint64(1), "svc", "m", []byte("body"), int64(0), "", true, int64(7))
	f.Add("", "", uint64(0), "", "", []byte(nil), int64(1<<20), "boom", false, int64(-3))
	f.Fuzz(func(t *testing.T, from, to string, id uint64, svc, method string, body []byte, pad int64, errStr string, idem bool, n int64) {
		in := Message{
			From: from, To: to, Kind: KindRequest, ID: id,
			Service: svc, Method: method, Body: body,
			Pad: int(int32(pad)), Err: errStr, Idem: idem,
		}
		enc, err := Marshal(&in)
		if err != nil {
			t.Fatalf("marshal message: %v", err)
		}
		var out Message
		if err := Unmarshal(enc, &out); err != nil {
			t.Fatalf("unmarshal message: %v", err)
		}
		if out.From != in.From || out.To != in.To || out.Kind != in.Kind ||
			out.ID != in.ID || out.Service != in.Service || out.Method != in.Method ||
			!bytes.Equal(out.Body, in.Body) || out.Pad != in.Pad ||
			out.Err != in.Err || out.Idem != in.Idem {
			t.Fatalf("message round trip: got %+v want %+v", out, in)
		}

		// The tagged value path: every supported kind, including
		// arbitrary fuzzed scalars, must come back with identical type
		// and value.
		vals := []any{
			nil, n, int(n), int32(n), uint64(id), float64(n) / 3,
			float32(n), from, body, time.Duration(n), idem,
			[]int64{n, -n}, []string{from, to}, []any{n, from, nil},
			map[string]string{from: to}, map[string]int{svc: int(int32(pad))},
		}
		encV, err := Marshal(vals)
		if err != nil {
			t.Fatalf("marshal values: %v", err)
		}
		var outV []any
		if err := Unmarshal(encV, &outV); err != nil {
			t.Fatalf("unmarshal values: %v", err)
		}
		if len(outV) != len(vals) {
			t.Fatalf("value count: got %d want %d", len(outV), len(vals))
		}
		for i, want := range vals {
			if b, ok := want.([]byte); ok {
				if got, ok := outV[i].([]byte); !ok || !bytes.Equal(got, b) {
					t.Fatalf("value %d: got %#v want %#v", i, outV[i], want)
				}
				continue
			}
			switch want.(type) {
			case []int64, []string, []any, map[string]string, map[string]int:
				continue // spot-checked by the typed tests; identity is structural
			}
			if outV[i] != want {
				t.Fatalf("value %d: got %#v (%T) want %#v (%T)", i, outV[i], outV[i], want, want)
			}
		}

		// The batch envelope around both.
		var batch Batch
		MustAppendTo(&batch, &in)
		MustAppendTo(&batch, vals)
		encB, err := Marshal(batch)
		if err != nil {
			t.Fatalf("marshal batch: %v", err)
		}
		var outB Batch
		if err := Unmarshal(encB, &outB); err != nil {
			t.Fatalf("unmarshal batch: %v", err)
		}
		if outB.Len() != 2 {
			t.Fatalf("batch len: got %d want 2", outB.Len())
		}
		var m2 Message
		if err := outB.Decode(0, &m2); err != nil {
			t.Fatalf("batch item 0: %v", err)
		}
		if m2.ID != in.ID || m2.Method != in.Method {
			t.Fatalf("batch message: got %+v want %+v", m2, in)
		}
	})
}

// FuzzWireDecode throws arbitrary bytes at every decoder entry point
// and demands a typed error or success — never a panic, never an
// unbounded allocation.
func FuzzWireDecode(f *testing.F) {
	seedMsg, _ := Marshal(&Message{From: "a", To: "b", Kind: KindRequest, ID: 9, Service: "s", Method: "m", Body: []byte("xyz")})
	f.Add(seedMsg)
	var b Batch
	MustAppendTo(&b, &Message{Kind: KindResponse, ID: 1})
	seedBatch, _ := Marshal(b)
	f.Add(seedBatch)
	seedVals, _ := Marshal([]any{int64(5), "hi", []float64{1.5}})
	f.Add(seedVals)
	f.Add([]byte{FormatWire, 0x01})
	f.Add([]byte{FormatValue, 0xff})
	f.Add([]byte{})
	// Layout bodies in the shapes the disk and the wire carry: nested
	// record slices with nil and non-nil pointers (a WAL manifest and its
	// shard-group records; FuzzCoreWireDecode decodes the real ones), a
	// record with its optional parts unset, and a registered task inside
	// a []any argument vector.
	seedDeep, _ := Marshal(deepValue())
	f.Add(seedDeep)
	seedSparse, _ := Marshal(layoutDeep{Names: []string{"only"}})
	f.Add(seedSparse)
	seedTask, _ := Marshal([]any{layoutTask{Row0: 4, Rows: 2, A: []float32{1, 2, 3, 4}}, 7})
	f.Add(seedTask)
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(what string, err error) {
			if err == nil {
				return
			}
			if errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrCorrupt) || errors.Is(err, ErrCodec) {
				return
			}
			t.Fatalf("%s: untyped decode error %v (%T)", what, err, err)
		}
		var m Message
		check("message", Unmarshal(data, &m))
		var batch Batch
		if err := Unmarshal(data, &batch); err != nil {
			check("batch", err)
		} else if batch.Len() > 0 {
			var item any
			check("batch item", batch.Decode(0, &item))
		}
		var vals []any
		check("values", Unmarshal(data, &vals))
		var v any
		check("value", Unmarshal(data, &v))
		var deep layoutDeep
		check("layout", Unmarshal(data, &deep))

		// Every prefix of a valid encoding must also fail cleanly.
		if len(data) > 0 {
			var mm Message
			check("prefix", Unmarshal(data[:len(data)/2], &mm))
		}
	})
}

// FuzzReadFrame feeds arbitrary frame bodies through readFrame with one
// header table shared across inputs, as a connection shares its table.
// Each input must fail with a typed error, or decode to the message the
// reflective layout decode gives without a table; the two decoders must
// agree on which inputs are valid; and the table never outgrows its
// bound.
func FuzzReadFrame(f *testing.F) {
	_, body, bad := frameCases()
	f.Add(body)
	for _, c := range bad {
		f.Add(c.body)
	}
	names := headerNames{}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := readFrame(frameReader(body), names)
		want := new(Message)
		wantErr := decodeWire(body, want)
		if wantErr == nil && (want.Kind < KindRequest || want.Kind > KindOneWay) {
			wantErr = wire.ErrCorrupt
		}
		switch {
		case err != nil && !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, wire.ErrTruncated):
			t.Fatalf("untyped error: %v", err)
		case (err == nil) != (wantErr == nil):
			t.Fatalf("readFrame: %v; decodeWire: %v", err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("readFrame %+v, decodeWire %+v", got, want)
		}
		if len(names) > maxHeaderNames {
			t.Fatalf("header table holds %d strings, bound %d", len(names), maxHeaderNames)
		}
		for s := range names {
			if len(s) > maxHeaderNameLen {
				t.Fatalf("header table kept a %d-byte string, bound %d", len(s), maxHeaderNameLen)
			}
		}
	})
}
