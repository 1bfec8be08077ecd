package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/rmi/wire"
)

// wireStruct is what every protocol struct in wirecodec.go provides.
type wireStruct interface {
	wire.Encoder
	wire.Decoder
}

// wireStructs yields a fresh zero value of every hand-written codec in
// wirecodec.go.  A new protocol struct joins the round-trip table and
// the fuzz target by being listed here.
var wireStructs = []func() wireStruct{
	func() wireStruct { return new(Ref) },
	func() wireStruct { return new(createReq) },
	func() wireStruct { return new(invokeReq) },
	func() wireStruct { return new(invokeResp) },
	func() wireStruct { return new(migrateOutReq) },
	func() wireStruct { return new(migrateInReq) },
	func() wireStruct { return new(freeReq) },
	func() wireStruct { return new(storeReq) },
	func() wireStruct { return new(loadReq) },
	func() wireStruct { return new(locateReq) },
	func() wireStruct { return new(locateResp) },
	func() wireStruct { return new(codebaseReq) },
	func() wireStruct { return new(replicaConfigureReq) },
	func() wireStruct { return new(replicaAuthRenewReq) },
	func() wireStruct { return new(replicaUpdateReq) },
	func() wireStruct { return new(replicaDropReq) },
	func() wireStruct { return new(replicaSnapshotReq) },
	func() wireStruct { return new(replicaSnapshotResp) },
	func() wireStruct { return new(replicaRenewReq) },
	func() wireStruct { return new(replicaRenewResp) },
	func() wireStruct { return new(durableReq) },
}

// fillNonZero sets every field reachable from v to a distinct non-zero
// value, so a field the codec forgets shows up as a DeepEqual mismatch.
// A field type it has no rule for is a gap in this test: it panics.
func fillNonZero(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i), n)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint64:
		v.SetUint(uint64(*n) + 1000)
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Int64: // time.Duration
		v.SetInt(int64(*n) * int64(time.Millisecond))
	case reflect.Slice:
		switch v.Type().Elem().Kind() {
		case reflect.Uint8:
			v.SetBytes([]byte{byte(*n), 0, 0xff})
		case reflect.String:
			v.Set(reflect.ValueOf([]string{fmt.Sprintf("a%d", *n), fmt.Sprintf("b%d", *n)}))
		case reflect.Interface:
			v.Set(reflect.ValueOf([]any{*n, fmt.Sprintf("arg%d", *n), 2.5, []float32{1, 2}}))
		default:
			panic(fmt.Sprintf("fillNonZero: no rule for slice of %s", v.Type().Elem()))
		}
	case reflect.Interface:
		v.Set(reflect.ValueOf(map[string]int{"k": *n}))
	default:
		panic(fmt.Sprintf("fillNonZero: no rule for %s", v.Type()))
	}
}

// filled returns the i'th protocol struct with every field set.
func filled(i int) wireStruct {
	v := wireStructs[i]()
	n := 0
	fillNonZero(reflect.ValueOf(v).Elem(), &n)
	return v
}

// TestCoreWireRoundTrip: every protocol struct survives its own codec
// with all fields intact, owns its tag byte, and fails every strict
// prefix of its encoding as truncated.
func TestCoreWireRoundTrip(t *testing.T) {
	tags := make(map[byte]string)
	for i := range wireStructs {
		in := filled(i)
		name := reflect.TypeOf(in).Elem().Name()
		t.Run(name, func(t *testing.T) {
			b := in.AppendTo(nil)
			if other, dup := tags[b[0]]; dup {
				t.Fatalf("tag 0x%02x is shared with %s", b[0], other)
			}
			tags[b[0]] = name
			out := wireStructs[i]()
			if err := out.DecodeFrom(b); err != nil {
				t.Fatalf("decode of own encoding: %v", err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round trip lost a field:\n in  %+v\n out %+v", in, out)
			}
			for cut := 0; cut < len(b); cut++ {
				if err := wireStructs[i]().DecodeFrom(b[:cut]); !errors.Is(err, wire.ErrTruncated) {
					t.Fatalf("prefix %d/%d decoded with %v, want wire.ErrTruncated", cut, len(b), err)
				}
			}
			// Through the format-tagged front door the RMI layer uses.
			body := rmi.MustMarshal(in)
			viaRMI := wireStructs[i]()
			if err := rmi.Unmarshal(body, viaRMI); err != nil || !reflect.DeepEqual(in, viaRMI) {
				t.Fatalf("rmi.Marshal/Unmarshal: %v\n in  %+v\n out %+v", err, in, viaRMI)
			}
		})
	}
}

// layoutBodies are the core bodies without a hand-written schema: they
// cross the wire and the disk through rmi's derived layouts.
func layoutBodies() []any {
	pol := &replica.Policy{N: 2, Mode: replica.Eventual, Lease: time.Second, Reads: []string{"Get"}, MinSync: 1}
	return []any{
		staticReq{Class: "kv.Store"},
		staticResp{Ref: Ref{App: "app:n0:1", ID: 3, Class: "kv.Store", Origin: "n0"}, Node: "n2"},
		durManifest{App: "app:n0:1"},
		durManifest{
			App: "app:n0:1",
			Objects: []durObjRec{
				{ID: 1, Class: "kv.Store", Node: "n1", Reads: []string{"Get"}},
				{ID: 2, Class: "kv.Store", Node: "n2", Replica: pol, Group: "g", Shard: "g/0"},
			},
			Groups: []durGroupRec{{
				Name: "g", Class: "kv.Store", Shards: []string{"g/0", "g/1"}, Vnodes: 64,
				Spec: ShardSpec{Shards: 2, Replication: pol, Reads: []string{"Get"},
					InitArgs: []any{0.5, 2.0}, InitMethod: "InitRW"},
				KeysMethod: "Keys", ExtractMethod: "Extract", InstallMethod: "Install",
			}},
		},
		PersistRecord{Class: "kv.Store", State: []byte{1, 2, 3}},
		PersistRecord{Class: "kv.Store", State: []byte{4}, Replica: pol, Group: &GroupRecord{
			Name: "g", Class: "kv.Store", Vnodes: 64, Reads: []string{"Get"},
			KeysMethod: "Keys", ExtractMethod: "Extract", InstallMethod: "Install",
			Replication: pol, Members: []string{"g/0"}, ShardKeys: []string{"k0"},
		}},
	}
}

// TestCoreLayoutRoundTrip: every layout body comes back DeepEqual
// through rmi.Marshal/Unmarshal, nil and non-nil policies alike.
func TestCoreLayoutRoundTrip(t *testing.T) {
	for _, in := range layoutBodies() {
		body, err := rmi.Marshal(in)
		if err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		out := reflect.New(reflect.TypeOf(in))
		if err := rmi.Unmarshal(body, out.Interface()); err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out.Elem().Interface()) {
			t.Errorf("%T round trip:\n in  %+v\n out %+v", in, in, out.Elem().Interface())
		}
	}
}

// FuzzCoreWireDecode throws arbitrary bytes at every protocol struct's
// decoder, and at the layout bodies the WAL and external storage keep
// (the manifest, the persisted record): success or a typed error, never
// a panic.  These bytes crossed a wire (or a crash, for the images
// inside them).
func FuzzCoreWireDecode(f *testing.F) {
	for i := range wireStructs {
		f.Add(filled(i).AppendTo(nil))
		f.Add(wireStructs[i]().AppendTo(nil))
	}
	f.Add([]byte{})
	for _, v := range layoutBodies() {
		f.Add(rmi.MustMarshal(v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(v any, err error) {
			if err != nil && !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, rmi.ErrCodec) {
				t.Fatalf("%T: untyped decode error %v (%T)", v, err, err)
			}
		}
		for _, fresh := range wireStructs {
			v := fresh()
			check(v, v.DecodeFrom(data))
		}
		var man durManifest
		check(&man, rmi.Unmarshal(data, &man))
		var rec PersistRecord
		check(&rec, rmi.Unmarshal(data, &rec))
	})
}
