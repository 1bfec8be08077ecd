package params

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"

	"jsymphony/internal/rmi/wire"
)

// The wire form of a Snapshot is the one the RMI layout codec gives a
// map[ID]Value: a count, then each present parameter as its ID (a wire
// string) and its Value's fields (Kind, Num, Str).  Entries go in
// encoded-key order, as the layout codec sorts any map: the key's
// length prefix first, then its bytes, so "cpu.sys" goes before
// "cpu.arch".  That is not the sorted-ID order of IDs and String, so
// the two permutations are built here once.  The rmi package finds the
// codec through AppendWire and DecodeWire, wherever a Snapshot travels.

// wireKey holds each parameter's ID as encoded on the wire; wireOrd
// lists the ordinals in the order of those bytes.
var wireKey, wireOrd = func() (key [nParams][]byte, ord [nParams]uint8) {
	for o := range ord {
		key[o] = wire.AppendString(nil, string(catalog[o].ID))
		ord[o] = uint8(o)
	}
	slices.SortFunc(ord[:], func(a, b uint8) int { return bytes.Compare(key[a], key[b]) })
	return key, ord
}()

// AppendWire appends the snapshot's wire form to buf.
func (s Snapshot) AppendWire(buf []byte) []byte {
	if s.d == nil {
		return wire.AppendUvarint(buf, 0)
	}
	buf = wire.AppendUvarint(buf, uint64(bits.OnesCount64(s.d.has)))
	for _, o := range wireOrd {
		if s.d.has&(1<<o) == 0 {
			continue
		}
		v := &s.d.v[o]
		buf = append(buf, wireKey[o]...)
		buf = wire.AppendVarint(buf, int64(v.Kind))
		buf = wire.AppendFloat64(buf, v.Num)
		buf = wire.AppendString(buf, v.Str)
	}
	return buf
}

// DecodeWire reads a snapshot's wire form off d into s.  Entries may
// come in any order, and a repeated parameter keeps its last value.  A
// parameter outside the catalog, or a value of the wrong kind, fails d
// as corrupt; a count of zero decodes as the zero Snapshot.  The text
// values share one allocation (wire.Strs), measured by the check that
// runs first, on a copy of d: the decode proper starts on input that
// is known to be good.
func (s *Snapshot) DecodeWire(d *wire.Dec) {
	var strs wire.Strs
	c := *d
	n := check(&c, &strs)
	if err := c.Err(); err != nil {
		d.Fail(err)
		return
	}
	d.Uvarint()
	if n == 0 {
		*s = Snapshot{}
		return
	}
	strs.Alloc(&c)
	out := NewSnapshot()
	next := 0
	for ; n > 0; n-- {
		key := d.Bytes()
		kind := Kind(d.Varint())
		num := d.Float64()
		str := d.StringIn(&strs)
		o, _ := match(key, kind, &next)
		out.d.has |= 1 << o
		out.d.v[o] = Value{Kind: kind, Num: num, Str: str}
	}
	*s = out
}

// CheckWire reads a snapshot's wire form off d without decoding it and
// returns the bytes it spans, which alias d's input.  It accepts exactly
// the input DecodeWire accepts, fails d as DecodeWire would, and
// allocates nothing on success: a holder of the span can decode it
// later, with DecodeWire, knowing the decode cannot fail.
func CheckWire(d *wire.Dec) []byte {
	c := *d
	check(&c, nil)
	if err := c.Err(); err != nil {
		d.Fail(err)
		return nil
	}
	return d.Raw(d.Remaining() - c.Remaining())
}

// check reads one snapshot wire form off d, failing d at the first
// entry DecodeWire would refuse, and returns its entry count.  strs,
// unless nil, measures the text values.
func check(d *wire.Dec, strs *wire.Strs) uint64 {
	n := d.Uvarint()
	if d.Err() != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("%w: count %d exceeds %d remaining bytes", wire.ErrTruncated, n, d.Remaining()))
		return 0
	}
	next := 0
	for range n {
		key := d.Bytes()
		kind := Kind(d.Varint())
		d.Float64()
		if strs != nil {
			strs.Measure(d)
		} else {
			d.Bytes()
		}
		if d.Err() != nil {
			return 0
		}
		if _, err := match(key, kind, &next); err != nil {
			d.Fail(err)
			return 0
		}
	}
	return n
}

// match returns the ordinal of the parameter key names, checking that
// it holds values of kind.  Every encoder emits wire order, so key is
// first sought among the parameters after *next, the wire position
// after the last key found in order, which skips the absent ones.  A
// key that is not there (out of order, repeated or unknown) is looked
// up by ID, and so is every key after it.
func match(key []byte, kind Kind, next *int) (int, error) {
	o, ok := -1, false
	for ; *next < nParams && !ok; *next++ {
		o = int(wireOrd[*next])
		ok = string(key) == string(catalog[o].ID)
	}
	if !ok {
		o, ok = byID[ID(key)]
	}
	if !ok {
		return 0, fmt.Errorf("%w: %q is not a cataloged parameter", wire.ErrCorrupt, key)
	}
	if kind != catalog[o].Kind {
		return 0, fmt.Errorf("%w: %s holds a %s, not kind %d", wire.ErrCorrupt, catalog[o].ID, kindNames[catalog[o].Kind], kind)
	}
	return o, nil
}
