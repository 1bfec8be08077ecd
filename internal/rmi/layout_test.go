package rmi

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"jsymphony/internal/rmi/wire"
)

type (
	layoutID   string
	layoutKind int8
	layoutVal  struct {
		Kind layoutKind
		Num  float64
		Str  string
	}
	layoutSnap map[layoutID]layoutVal
	layoutFlat struct {
		B   bool
		I   int
		I8  int8
		I16 int16
		I32 int32
		I64 int64
		U   uint
		U8  uint8
		U16 uint16
		U32 uint32
		U64 uint64
		F32 float32
		F64 float64
		S   string
		D   time.Duration
		ID  layoutID
	}
	layoutDeep struct {
		Flat    layoutFlat
		Flats   []layoutFlat
		Ptr     *layoutFlat
		Ghost   [2]float64
		Snap    layoutSnap
		ByInt   map[int]string
		Grid    [][]float64
		Raw     []byte
		Names   []string
		F32s    []float32
		Counts  map[string]int
		One     Batch
		MsgPtr  *Message
		Batches []Batch
		Args    []any
		hidden  int
	}
	layoutTask struct {
		Row0, Rows int
		A          []float32
	}
	layoutNode struct {
		V    int
		Next *layoutNode
	}
)

func init() { RegisterType(layoutTask{}) }

// roundTrip encodes v with its layout and decodes into a fresh value.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	l, err := layoutOf(reflect.TypeOf(v))
	if err != nil {
		t.Fatalf("layoutOf(%T): %v", v, err)
	}
	buf := l.enc(nil, reflect.ValueOf(v))
	out := reflect.New(l.t).Elem()
	d := wire.NewDec(buf)
	l.dec(&d, out, 0)
	if err := d.Finish(); err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return out.Interface()
}

func flatValue() layoutFlat {
	return layoutFlat{
		B: true, I: -7, I8: -8, I16: 300, I32: -70000, I64: 1 << 40,
		U: 7, U8: 255, U16: 65535, U32: 1 << 31, U64: 1 << 63,
		F32: 1.5, F64: -2.25, S: "héllo", D: 3 * time.Millisecond, ID: "idle",
	}
}

// deepValue sets every layoutDeep field, nested records and a
// registered value inside []any included.
func deepValue() layoutDeep {
	flat := flatValue()
	var batch Batch
	MustAppendTo(&batch, "item")
	return layoutDeep{
		Flat:    flat,
		Flats:   []layoutFlat{flat, {S: "second"}},
		Ptr:     &flat,
		Ghost:   [2]float64{0.5, -0.5},
		Snap:    layoutSnap{"idle": {Kind: 1, Num: 42}, "name": {Kind: 2, Str: "milena"}},
		ByInt:   map[int]string{-1: "neg", 3: "three"},
		Grid:    [][]float64{{1, 2}, {3}},
		Raw:     []byte{0, 1, 2},
		Names:   []string{"a", "b"},
		F32s:    []float32{1, 2.5},
		Counts:  map[string]int{"x": 1},
		One:     batch,
		MsgPtr:  &Message{From: "a", To: "b", Kind: KindRequest, ID: 9, Body: []byte("xyz")},
		Batches: []Batch{batch},
		Args:    []any{0.5, layoutTask{Row0: 2, Rows: 1, A: []float32{1, 2}}},
	}
}

func TestLayoutRoundTrip(t *testing.T) {
	flat, deep := flatValue(), deepValue()
	for _, v := range []any{
		flat, deep, layoutDeep{}, &flat, (*layoutFlat)(nil), layoutSnap{"k": {Num: 1}},
		[]layoutFlat{flat}, [3]int{1, 2, 3}, layoutNode{V: 1, Next: &layoutNode{V: 2}},
	} {
		got := roundTrip(t, v)
		if b, ok := got.(layoutDeep); ok {
			// Batch memoizes offsets on first Decode; compare the wire state.
			b.One.offs = nil
			for i := range b.Batches {
				b.Batches[i].offs = nil
			}
			got = b
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%T round trip:\n got %#v\nwant %#v", v, got, v)
		}
	}
}

// TestLayoutNilVersusEmpty pins the rule in layout.go: nil and empty
// slices and maps encode alike and decode as nil.
func TestLayoutNilVersusEmpty(t *testing.T) {
	type holder struct {
		S []int
		M map[string]int
		B []byte
		N []string
		G map[layoutID]layoutVal
		F []layoutFlat
	}
	empty := holder{S: []int{}, M: map[string]int{}, B: []byte{}, N: []string{}, G: layoutSnap{}, F: []layoutFlat{}}
	l, err := layoutOf(reflect.TypeOf(holder{}))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := l.enc(nil, reflect.ValueOf(empty)), l.enc(nil, reflect.ValueOf(holder{})); !bytes.Equal(a, b) {
		t.Fatalf("empty encodes as %x, nil as %x", a, b)
	}
	if got := roundTrip(t, empty); !reflect.DeepEqual(got, holder{}) {
		t.Fatalf("empty decoded as %#v, want all nil", got)
	}
}

// TestLayoutDecodeKeepsUnexported: a decode overwrites the exported
// fields and nothing else (an object's mutex, its caches).
func TestLayoutDecodeKeepsUnexported(t *testing.T) {
	l, _ := layoutOf(reflect.TypeOf(layoutDeep{}))
	buf := l.enc(nil, reflect.ValueOf(layoutDeep{Names: []string{"n"}}))
	target := layoutDeep{hidden: 5, Raw: []byte("stale")}
	d := wire.NewDec(buf)
	l.dec(&d, reflect.ValueOf(&target).Elem(), 0)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if target.hidden != 5 || target.Raw != nil || len(target.Names) != 1 {
		t.Fatalf("decode into a used value: %+v", target)
	}
}

// TestLayoutMapOrder: the bytes of a map are a function of its
// contents, not of insertion or iteration order.
func TestLayoutMapOrder(t *testing.T) {
	a, b := layoutSnap{}, layoutSnap{}
	for i := 0; i < 64; i++ {
		a[layoutID(rune('A'+i))] = layoutVal{Num: float64(i)}
		b[layoutID(rune('A'+63-i))] = layoutVal{Num: float64(63 - i)}
	}
	l, _ := layoutOf(reflect.TypeOf(a))
	first := l.enc(nil, reflect.ValueOf(a))
	for i := 0; i < 8; i++ {
		if again := l.enc(nil, reflect.ValueOf(b)); !bytes.Equal(first, again) {
			t.Fatal("equal maps encoded to different bytes")
		}
	}
}

// TestLayoutIntegerOverflow: an integer wider than its field fails as
// corrupt instead of wrapping (300 into a uint8 would read back as 44).
func TestLayoutIntegerOverflow(t *testing.T) {
	type narrow struct {
		U uint8
		I int16
	}
	l, _ := layoutOf(reflect.TypeOf(narrow{}))
	for name, body := range map[string][]byte{
		"uint8 300":    wire.AppendVarint(wire.AppendUvarint(nil, 300), 0),
		"int16 -40000": wire.AppendVarint(wire.AppendUvarint(nil, 1), -40000),
	} {
		var out narrow
		d := wire.NewDec(body)
		l.dec(&d, reflect.ValueOf(&out).Elem(), 0)
		if err := d.Finish(); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: decoded %+v with %v, want wire.ErrCorrupt", name, out, err)
		}
	}
}

// TestLayoutUnencodable: a type with no encoding fails at registration,
// naming the field.
func TestLayoutUnencodable(t *testing.T) {
	type inner struct{ Done chan int }
	for _, c := range []struct {
		v     any
		field string
	}{
		{struct{ C chan int }{}, "field C"},
		{struct{ F func() }{}, "field F"},
		{struct{ E error }{}, "field E"},
		{struct{ In []inner }{}, "field In: field Done"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.field) || !strings.Contains(msg, "has no encoding") {
					t.Errorf("RegisterType(%T) panicked with %q, want it to name %q", c.v, msg, c.field)
				}
			}()
			RegisterType(c.v)
		}()
	}
}

// TestLayoutDepthBound: corrupt input cannot recurse a recursive type
// without bound.
func TestLayoutDepthBound(t *testing.T) {
	l, _ := layoutOf(reflect.TypeOf(layoutNode{}))
	buf := bytes.Repeat([]byte{0x02, 0x01}, 10000) // V=1, Next non-nil, ...
	d := wire.NewDec(buf)
	l.dec(&d, reflect.New(l.t).Elem(), 0)
	if err := d.Finish(); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("deep input: %v, want ErrCorrupt", err)
	}
}

// TestRetiredGobTag: a body in the retired gob format (tag 0x47) fails
// with ErrCodec, not decoded.
func TestRetiredGobTag(t *testing.T) {
	var v layoutFlat
	err := Unmarshal([]byte{0x47, 0x03, 0x04, 0x00, 0x0c}, &v)
	if !errors.Is(err, ErrCodec) || !strings.Contains(err.Error(), "unknown format tag 0x47") {
		t.Fatalf("gob-tagged body: %v, want ErrCodec for an unknown format tag", err)
	}
}

// TestNamedBodies: a body names its type; it needs no registration to
// travel alone, decodes only into the type it names, and inside an any
// it must be registered.
func TestNamedBodies(t *testing.T) {
	in := flatValue()
	body, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out layoutFlat
	if err := Unmarshal(body, &out); err != nil || out != in {
		t.Fatalf("unregistered body: %v, %+v", err, out)
	}
	var wrong layoutTask
	if err := Unmarshal(body, &wrong); !errors.Is(err, ErrCodec) || !strings.Contains(err.Error(), "body into") {
		t.Fatalf("layoutFlat body into layoutTask: %v, want ErrCodec", err)
	}
	if _, err := Marshal([]any{in}); !errors.Is(err, ErrCodec) || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("unregistered type inside []any: %v", err)
	}
	var anyOut any
	if err := Unmarshal(body, &anyOut); !errors.Is(err, ErrCodec) || !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("unregistered body into an any: %v, want ErrCodec", err)
	}
}
