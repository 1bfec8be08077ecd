package rmi

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"jsymphony/internal/rmi/wire"
)

// The per-string reference decoders: the string containers as they
// decoded before their strings shared one allocation, one copy per
// string.

func refMapSS(d *wire.Dec) map[string]string {
	n := decLen(d)
	if n == 0 {
		return nil
	}
	out := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := d.String()
		out[k] = d.String()
	}
	return out
}

func refMapSI(d *wire.Dec) map[string]int {
	n := decLen(d)
	if n == 0 {
		return nil
	}
	out := make(map[string]int, n)
	for i := 0; i < n; i++ {
		k := d.String()
		out[k] = int(d.Varint())
	}
	return out
}

func refMapSF(d *wire.Dec) map[string]float64 {
	n := decLen(d)
	if n == 0 {
		return nil
	}
	out := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		k := d.String()
		out[k] = d.Float64()
	}
	return out
}

func refStrings(d *wire.Dec) []string {
	n := d.Uvarint()
	if d.Err() != nil || n == 0 {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("%w: length %d exceeds %d remaining bytes", wire.ErrTruncated, n, d.Remaining()))
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	if d.Err() != nil {
		return nil
	}
	return out
}

// bitsOf keys a float map's values by their bit patterns, so that NaN
// values compare equal to themselves.
func bitsOf(m map[string]float64) map[string]uint64 {
	if m == nil {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = math.Float64bits(v)
	}
	return out
}

// containerTable is the 340-key table sim_serve's shards hold once
// touched.
func containerTable() map[string]int {
	m := make(map[string]int, 340)
	for i := 0; i < 340; i++ {
		m[fmt.Sprintf("key%03d", i)] = i
	}
	return m
}

// FuzzStringContainers decodes arbitrary bytes as each string container
// of the vocabulary, with the shared-backing decoder and with the
// per-string reference: both give equal values, or errors of the same
// class and text, and leave the cursor at the same byte.
func FuzzStringContainers(f *testing.F) {
	table := appendMapSI(nil, containerTable())
	f.Add(table)
	f.Add(table[:len(table)/2])
	f.Add(appendMapSS(nil, map[string]string{"": "x", "a": "", "bb": "ccc", "d": "e"}))
	f.Add(appendMapSF(nil, map[string]float64{"": 1, "a": 2, "bb": math.NaN()}))
	f.Add(wire.AppendStrings(nil, []string{"", "a", "bb", "ccc"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []struct {
			name     string
			got, ref func(*wire.Dec) any
		}{
			{"map[string]string",
				func(d *wire.Dec) any { return decMapSS(d) },
				func(d *wire.Dec) any { return refMapSS(d) }},
			{"map[string]int",
				func(d *wire.Dec) any { return decMapSI(d) },
				func(d *wire.Dec) any { return refMapSI(d) }},
			{"map[string]float64",
				func(d *wire.Dec) any { return bitsOf(decMapSF(d)) },
				func(d *wire.Dec) any { return bitsOf(refMapSF(d)) }},
			{"[]string",
				func(d *wire.Dec) any { return d.Strings() },
				func(d *wire.Dec) any { return refStrings(d) }},
		} {
			d, r := wire.NewDec(data), wire.NewDec(data)
			got, want := c.got(&d), c.ref(&r)
			if !sameErr(d.Err(), r.Err()) || d.Remaining() != r.Remaining() {
				t.Fatalf("%s: error %v with %d bytes left, reference %v with %d", c.name, d.Err(), d.Remaining(), r.Err(), r.Remaining())
			}
			if d.Err() == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded %v, reference %v", c.name, got, want)
			}
			if err := d.Err(); err != nil && !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("%s: untyped error %v", c.name, err)
			}
		}
	})
}

// sameErr reports whether a and b are both nil, or of one class with
// one text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return errors.Is(a, wire.ErrTruncated) == errors.Is(b, wire.ErrTruncated) &&
		errors.Is(a, wire.ErrCorrupt) == errors.Is(b, wire.ErrCorrupt) &&
		a.Error() == b.Error()
}

// TestStringContainersDoNotAlias: a decoded container's strings are
// copies.  Overwriting every byte of the body it came in leaves it equal
// to the value it was encoded from, whose strings the body never shared.
func TestStringContainersDoNotAlias(t *testing.T) {
	for _, v := range []any{
		containerTable(),
		map[string]string{"alpha": "one", "beta": "two", "": "c", "d": ""},
		map[string]float64{"load.1m": 0.5, "load.5m": 0.25},
		[]string{"n04", "n05", "", "x"},
		[]any{[]string{"Get", "Sum"}, map[string]int{"k1": 1, "k2": 2}},
	} {
		body := MustMarshal(v)
		var got any
		if err := Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		for i := range body {
			body[i] = 0xff
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%T changed with its body: %v, want %v", v, got, v)
		}
	}
}
