package core

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"jsymphony/internal/replica"
	"jsymphony/internal/rmi"
	"jsymphony/internal/rmi/wire"
)

// tagged yields a zero value of every protocol type in the
// registration table (wirecodec.go): a new protocol struct joins the
// round-trip table, the golden bytes and the fuzz target by being
// registered.
func tagged() []any {
	var out []any
	for _, w := range wireTypes {
		out = append(out, w.v)
	}
	return out
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
	case reflect.Uint8: // rmi.Kind: one of the three message kinds
		v.SetUint(uint64(*n%3) + 1)
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

// filled returns a value of zero's type with every field set.
func filled(zero any) any {
	v := reflect.New(reflect.TypeOf(zero)).Elem()
	n := 0
	fillNonZero(v, &n)
	return v.Interface()
}

// TestCoreWireRoundTrip: every tagged protocol type survives
// rmi.Marshal/Unmarshal with all fields intact, owns its tag byte, and
// fails every strict prefix of its body as truncated.
func TestCoreWireRoundTrip(t *testing.T) {
	tags := make(map[byte]string)
	for _, zero := range tagged() {
		in, typ := filled(zero), reflect.TypeOf(zero)
		t.Run(typ.Name(), func(t *testing.T) {
			b := rmi.MustMarshal(in)
			if b[0] != rmi.FormatWire {
				t.Fatalf("format tag 0x%02x, want FormatWire", b[0])
			}
			if other, dup := tags[b[1]]; dup {
				t.Fatalf("tag 0x%02x is shared with %s", b[1], other)
			}
			tags[b[1]] = typ.Name()
			out := reflect.New(typ)
			if err := rmi.Unmarshal(b, out.Interface()); err != nil || !reflect.DeepEqual(in, out.Elem().Interface()) {
				t.Fatalf("round trip: %v\n in  %+v\n out %+v", err, in, out.Elem())
			}
			for cut := 0; cut < len(b); cut++ {
				if err := rmi.Unmarshal(b[:cut], reflect.New(typ).Interface()); !errors.Is(err, wire.ErrTruncated) {
					t.Fatalf("prefix %d/%d decoded with %v, want wire.ErrTruncated", cut, len(b), err)
				}
			}
		})
	}
}

// goldenBodies are the bodies TestWireGolden pins: every tagged type
// filled and zero, the transport's own message and batch, and a Ref
// nested the two ways it rides as an argument.
func goldenBodies() []any {
	var out []any
	for _, zero := range tagged() {
		out = append(out, filled(zero), zero)
	}
	msg := filled(rmi.Message{}).(rmi.Message)
	var batch rmi.Batch
	batch.MustAppend(&msg)
	batch.MustAppend(filled(locateReq{}))
	ref := filled(Ref{}).(Ref)
	return append(out, &msg, &rmi.Message{}, batch, []any{ref, 7}, []Ref{ref, {}})
}

// TestWireGolden pins the bytes of every tagged body
// (testdata/wire_golden.txt, one "<type> <hex>" line per body): the
// codec may change how it produces them, never what they are.
func TestWireGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/wire_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, v := range goldenBodies() {
		fmt.Fprintf(&got, "%T %x\n", v, rmi.MustMarshal(v))
	}
	if got.String() != string(want) {
		t.Errorf("wire bodies moved; got:\n%s", got.String())
	}
}

// layoutBodies are the core bodies without a struct tag: they cross the
// wire and the disk as named layouts.
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

// FuzzCoreWireDecode throws arbitrary bytes at every tagged protocol
// type and at the layout bodies the WAL and external storage keep (the
// manifest, the persisted record): success or a typed error, never a
// panic.  These bytes crossed a wire (or a crash, for the images inside
// them).
func FuzzCoreWireDecode(f *testing.F) {
	for _, zero := range tagged() {
		f.Add(rmi.MustMarshal(filled(zero)))
		f.Add(rmi.MustMarshal(zero))
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
		for _, zero := range tagged() {
			v := reflect.New(reflect.TypeOf(zero)).Interface()
			check(v, rmi.Unmarshal(data, v))
		}
		var man durManifest
		check(&man, rmi.Unmarshal(data, &man))
		var rec PersistRecord
		check(&rec, rmi.Unmarshal(data, &rec))
	})
}
