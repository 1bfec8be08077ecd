package params

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"jsymphony/internal/rmi"
	"jsymphony/internal/rmi/wire"
)

// TestSnapshotOrders pins the snapshot's two permutations of the
// catalog.  IDs and String go in sorted-ID order.  The wire goes in the
// order of the encoded keys, as the layout codec sorts a map's entries:
// sorting by wire.AppendString bytes here keeps that true even for an
// ID of 128 bytes or more, whose two-byte length prefix does not sort
// by length.  On today's catalog the two orders differ.
func TestSnapshotOrders(t *testing.T) {
	ids := make([]ID, nParams)
	for o, in := range &catalog {
		ids[o] = in.ID
	}
	byString := append([]ID(nil), ids...)
	sort.Slice(byString, func(i, j int) bool { return byString[i] < byString[j] })
	byWire := append([]ID(nil), ids...)
	sort.Slice(byWire, func(i, j int) bool {
		return bytes.Compare(wire.AppendString(nil, string(byWire[i])), wire.AppendString(nil, string(byWire[j]))) < 0
	})
	gotString, gotWire := make([]ID, nParams), make([]ID, nParams)
	for i := range sortedOrd {
		gotString[i], gotWire[i] = catalog[sortedOrd[i]].ID, catalog[wireOrd[i]].ID
	}
	if !reflect.DeepEqual(gotString, byString) {
		t.Errorf("sorted-ID order = %v, want %v", gotString, byString)
	}
	if !reflect.DeepEqual(gotWire, byWire) {
		t.Errorf("wire order = %v, want %v", gotWire, byWire)
	}
	if reflect.DeepEqual(byString, byWire) {
		t.Error("the wire order equals the sorted-ID order on this catalog; the test no longer tells them apart")
	}
	full := NewSnapshot()
	for _, in := range &catalog {
		setAny(full, in, 1)
	}
	if got := full.IDs(); !reflect.DeepEqual(got, byString) {
		t.Errorf("IDs() = %v, want sorted-ID order", got)
	}
}

// TestSnapshotWireMatchesMapLayout: for random subsets of the catalog,
// a snapshot's wire form is byte for byte the layout codec's encoding
// of the same entries as a map[ID]Value, and decodes back to the same
// snapshot from it.
func TestSnapshotWireMatchesMapLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 500; round++ {
		s, m := NewSnapshot(), map[ID]Value{}
		for _, in := range &catalog {
			if rng.Intn(3) == 0 {
				continue
			}
			setAny(s, in, rng.Intn(1000))
			m[in.ID], _ = s.Get(in.ID)
		}
		want := layoutPayload(t, m)
		if got := s.AppendWire(nil); !bytes.Equal(got, want) {
			t.Fatalf("round %d: snapshot wire form\n %x\nmap layout\n %x", round, got, want)
		}
		var back Snapshot
		d := wire.NewDec(want)
		back.DecodeWire(&d)
		if err := d.Finish(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(m) == 0 {
			s = Snapshot{} // count 0 decodes as the zero Snapshot, as an empty map decodes nil
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round %d: decoded %v, want %v", round, back, s)
		}
	}
}

// setAny sets parameter in to a value of its kind derived from x, so
// string parameters carry strings of varied length.
func setAny(s Snapshot, in Info, x int) {
	if in.Kind == String {
		s.SetText(in.ID, "sparc-ultra"[:x%12])
		return
	}
	s.SetFloat(in.ID, float64(x)/7)
}

// layoutPayload returns the layout payload rmi.Marshal gives m: the
// body minus its value-format tag, named-value tag and type name.
func layoutPayload(t *testing.T, m map[ID]Value) []byte {
	d := wire.NewDec(rmi.MustMarshal(m))
	d.Byte()
	d.Byte()
	d.Bytes()
	payload := d.Bytes()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestSnapshotSetPanics: writing outside the catalog, the wrong kind,
// or into the zero Snapshot, by ID or by slot, is a programming error
// that names the parameter.
func TestSnapshotSetPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		id   ID
		set  func()
	}{
		{"unknown parameter", "no.such.parameter", func() { NewSnapshot().SetFloat("no.such.parameter", 1) }},
		{"text in a numeric parameter", Idle, func() { NewSnapshot().SetText(Idle, "high") }},
		{"number in a string parameter", NodeName, func() { NewSnapshot().SetFloat(NodeName, 1) }},
		{"zero Snapshot", Idle, func() { Snapshot{}.SetFloat(Idle, 1) }},
		{"slot of an unknown parameter", "no.such.parameter", func() { SlotOf("no.such.parameter") }},
		{"text in a numeric slot", Idle, func() { NewSnapshot().SetAt(SlotOf(Idle), Text("high")) }},
		{"slot of the zero Snapshot", NodeName, func() { Snapshot{}.SetAt(SlotOf(NodeName), Text("n")) }},
	} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), string(c.id)) {
					t.Errorf("%s: panic %v, want one naming %s", c.name, r, c.id)
				}
			}()
			c.set()
		}()
	}
}

// TestSnapshotDecodeAnyOrder: entries in a random order, some repeated,
// decode as a map's entries would, each parameter keeping its last
// value; a parameter outside the catalog or of the wrong kind fails as
// corrupt after any number of in-order entries.
func TestSnapshotDecodeAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	entry := func(buf []byte, o int, v Value) []byte {
		buf = wire.AppendString(buf, string(catalog[o].ID))
		buf = wire.AppendVarint(buf, int64(v.Kind))
		buf = wire.AppendFloat64(buf, v.Num)
		return wire.AppendString(buf, v.Str)
	}
	for round := 0; round < 500; round++ {
		n := 1 + rng.Intn(2*nParams)
		want := NewSnapshot()
		buf := wire.AppendUvarint(nil, uint64(n))
		for i := 0; i < n; i++ {
			o := rng.Intn(nParams)
			if rng.Intn(2) == 0 {
				o = int(wireOrd[i%nParams]) // runs in wire order, with repeats
			}
			v := Float(float64(rng.Intn(100)))
			if catalog[o].Kind == String {
				v = Text("sparc-ultra"[:rng.Intn(12)])
			}
			want.SetAt(Slot(o), v)
			buf = entry(buf, o, v)
		}
		var got Snapshot
		d := wire.NewDec(buf)
		got.DecodeWire(&d)
		if err := d.Finish(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: decoded\n%v\nwant\n%v", round, got, want)
		}
	}
	for _, c := range []struct {
		name, key string
		kind      Kind
		want      string
	}{
		{"unknown parameter", "no.such.parameter", Number, `"no.such.parameter" is not a cataloged parameter`},
		{"wrong kind", string(NodeName), Number, "node.name holds a string, not kind 0"},
	} {
		buf := wire.AppendUvarint(nil, 4)
		for i := 0; i < 3; i++ {
			buf = entry(buf, int(wireOrd[i]), Value{Kind: catalog[wireOrd[i]].Kind})
		}
		buf = wire.AppendString(buf, c.key)
		buf = wire.AppendVarint(buf, int64(c.kind))
		buf = wire.AppendFloat64(buf, 0)
		buf = wire.AppendString(buf, "")
		var got Snapshot
		d := wire.NewDec(buf)
		got.DecodeWire(&d)
		if err := d.Err(); !errors.Is(err, wire.ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want corrupt naming %q", c.name, err, c.want)
		}
	}
}

// TestSnapshotDecodeDoesNotAlias: the decoded text values are copies;
// overwriting the body leaves the snapshot equal to the one encoded.
func TestSnapshotDecodeDoesNotAlias(t *testing.T) {
	want := NewSnapshot()
	for o, in := range &catalog {
		setAny(want, in, o)
	}
	body := want.AppendWire(nil)
	var got Snapshot
	d := wire.NewDec(body)
	got.DecodeWire(&d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xff
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded\n%v\nwant\n%v", got, want)
	}
}

// TestCheckWire: CheckWire reads a snapshot's wire form and returns it as
// an alias of the input, leaving what follows, and fails exactly where
// DecodeWire fails, with the same error: on every cut of a good body
// and on an entry outside the catalog or of the wrong kind.
func TestCheckWire(t *testing.T) {
	full := NewSnapshot()
	for o, in := range &catalog {
		setAny(full, in, o)
	}
	enc := full.AppendWire(nil)
	body := append(append([]byte(nil), enc...), 0x7f)
	d := wire.NewDec(body)
	span := CheckWire(&d)
	if d.Err() != nil || !bytes.Equal(span, enc) || &span[0] != &body[0] || d.Remaining() != 1 {
		t.Fatalf("CheckWire = %d bytes, err %v, %d left; want the %d-byte snapshot, aliased, and 1 left",
			len(span), d.Err(), d.Remaining(), len(enc))
	}

	var inputs [][]byte
	for cut := range enc {
		inputs = append(inputs, enc[:cut])
	}
	first := catalog[wireOrd[0]]
	for _, c := range []struct {
		key  string
		kind Kind
	}{{"no.such.parameter", Number}, {string(NodeName), Number}, {string(Idle), String}, {string(Idle), 7}} {
		b := wire.AppendUvarint(nil, 2)
		b = wire.AppendString(b, string(first.ID))
		b = wire.AppendVarint(b, int64(first.Kind))
		b = wire.AppendFloat64(b, 0)
		b = wire.AppendString(b, "")
		b = wire.AppendString(b, c.key)
		b = wire.AppendVarint(b, int64(c.kind))
		b = wire.AppendFloat64(b, 0)
		inputs = append(inputs, wire.AppendString(b, ""))
	}
	for _, in := range inputs {
		check, dec := wire.NewDec(in), wire.NewDec(in)
		CheckWire(&check)
		var s Snapshot
		s.DecodeWire(&dec)
		if check.Err() == nil || fmt.Sprint(check.Err()) != fmt.Sprint(dec.Err()) {
			t.Fatalf("%x: CheckWire: %v; DecodeWire: %v", in, check.Err(), dec.Err())
		}
	}
}
