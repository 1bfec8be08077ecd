package rmi

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"

	"jsymphony/internal/rmi/wire"
)

// Layout codec: how every type crosses the wire — protocol structs,
// object state, NAS messages, registered user types inside []any.
// Java serializes a Serializable class by reflection (paper §4.3);
// here a layout is derived once per type, by reflection, and reused
// for every value of it:
//
//   - structs: the exported fields in declaration order, with no field
//     names or tags (the type is the schema).  Unexported fields do not
//     travel, and a decode leaves them untouched;
//   - bools, integers, floats and strings, named or not, in the wire
//     primitives (a time.Duration is an int64);
//   - slices and maps: a count, then the elements; map entries are
//     sorted by their encoded key, so the bytes are a function of the
//     value.  Fixed arrays: the elements, no count;
//   - pointers: a 0 byte for nil, else a 1 byte and the pointee.
//
// A nested struct is its bare fields, whatever it is elsewhere: a Ref
// inside a request carries no tag of its own.
//
// Nil versus empty: a nil and an empty slice or map encode alike (count
// 0) and decode as nil, as everywhere in package wire and as gob did
// for struct fields — code such as kv.Store's Put relies on it ("if
// s.Data == nil { make }").
//
// An any field, and each element of a []any, is a tagged value
// (value.go) naming its own type.  Non-empty interfaces, channels and
// functions have no encoding: deriving a layout for a type that
// contains one fails, naming the field, and RegisterType panics with
// that error at init.
//
// Fields are read and written through reflect.Value accessors, never
// boxed through Interface(), so encoding a flat struct allocates
// nothing beyond the buffer it fills.
type layout struct {
	t   reflect.Type
	enc func(buf []byte, v reflect.Value) []byte
	// dec overwrites v, which is always addressable; depth bounds the
	// recursion a corrupt input can drive through recursive types.
	dec func(d *wire.Dec, v reflect.Value, depth int)
	// fields are a struct's exported fields (nil for other kinds).
	fields []field
}

var (
	layoutMu sync.RWMutex
	layouts  = map[reflect.Type]*layout{}
	// named binds registered names (reflect.Type.String()) to layouts:
	// inside an any, the name is how a value says what it is.
	named = map[string]*layout{}
)

// layoutOf returns t's layout, deriving it on first use.
func layoutOf(t reflect.Type) (*layout, error) {
	layoutMu.RLock()
	l := layouts[t]
	layoutMu.RUnlock()
	if l != nil {
		return l, nil
	}
	layoutMu.Lock()
	defer layoutMu.Unlock()
	building := map[reflect.Type]*layout{}
	l, err := derive(t, building)
	if err != nil {
		return nil, err
	}
	maps.Copy(layouts, building)
	return l, nil
}

// derive builds t's layout under layoutMu.  building holds the layouts
// of this derivation so far: a recursive type finds its own (not yet
// filled) layout there, and the closures reach it through the pointer
// once it is.
func derive(t reflect.Type, building map[reflect.Type]*layout) (*layout, error) {
	if l := layouts[t]; l != nil {
		return l, nil
	}
	if l := building[t]; l != nil {
		return l, nil
	}
	l := &layout{t: t}
	building[t] = l
	switch t {
	case reflect.TypeFor[[]int]():
		l.enc, l.dec = typed(appendInts, decInts)
		return l, nil
	case reflect.TypeFor[[]int64]():
		l.enc, l.dec = typed(appendInt64s, decInt64s)
		return l, nil
	case reflect.TypeFor[[]float32]():
		l.enc, l.dec = typed(appendFloat32s, decFloat32s)
		return l, nil
	case reflect.TypeFor[[]float64]():
		l.enc, l.dec = typed(appendFloat64s, decFloat64s)
		return l, nil
	case reflect.TypeFor[[]string]():
		l.enc, l.dec = typed(wire.AppendStrings, (*wire.Dec).Strings)
		return l, nil
	case reflect.TypeFor[[]any]():
		l.enc, l.dec = encAnys, decAnys
		return l, nil
	case reflect.TypeFor[map[string]string]():
		l.enc, l.dec = typed(appendMapSS, decMapSS)
		return l, nil
	case reflect.TypeFor[map[string]int]():
		l.enc, l.dec = typed(appendMapSI, decMapSI)
		return l, nil
	case reflect.TypeFor[map[string]float64]():
		l.enc, l.dec = typed(appendMapSF, decMapSF)
		return l, nil
	}
	switch t.Kind() {
	case reflect.Bool:
		l.enc, l.dec = encBool, decBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		l.enc, l.dec = encInt, decInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		l.enc, l.dec = encUint, decUint
	case reflect.Float32:
		l.enc, l.dec = encFloat32, decFloat32
	case reflect.Float64:
		l.enc, l.dec = encFloat64, decFloat64
	case reflect.String:
		l.enc, l.dec = encString, decString
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			l.enc, l.dec = encBytes, decBytes
			break
		}
		el, err := derive(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		l.enc = func(buf []byte, v reflect.Value) []byte {
			buf = wire.AppendUvarint(buf, uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				buf = el.enc(buf, v.Index(i))
			}
			return buf
		}
		l.dec = func(d *wire.Dec, v reflect.Value, depth int) {
			n := decLen(d)
			if n == 0 || !deeper(d, depth) {
				v.SetZero()
				return
			}
			s := reflect.MakeSlice(t, n, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				el.dec(d, s.Index(i), depth+1)
			}
			v.Set(s)
		}
	case reflect.Array:
		el, err := derive(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		l.enc = func(buf []byte, v reflect.Value) []byte {
			for i := 0; i < v.Len(); i++ {
				buf = el.enc(buf, v.Index(i))
			}
			return buf
		}
		l.dec = func(d *wire.Dec, v reflect.Value, depth int) {
			for i := 0; i < v.Len(); i++ {
				el.dec(d, v.Index(i), depth)
			}
		}
	case reflect.Map:
		kl, err := derive(t.Key(), building)
		if err != nil {
			return nil, err
		}
		el, err := derive(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		l.enc = func(buf []byte, v reflect.Value) []byte { return appendMap(buf, v, kl, el) }
		l.dec = func(d *wire.Dec, v reflect.Value, depth int) { decMap(d, v, kl, el, depth) }
	case reflect.Pointer:
		el, err := derive(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		l.enc = func(buf []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(buf, 0)
			}
			return el.enc(append(buf, 1), v.Elem())
		}
		l.dec = func(d *wire.Dec, v reflect.Value, depth int) {
			if !d.Bool() || !deeper(d, depth) {
				v.SetZero()
				return
			}
			p := reflect.New(t.Elem())
			el.dec(d, p.Elem(), depth+1)
			v.Set(p)
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fl, err := derive(f.Type, building)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", f.Name, err)
			}
			l.fields = append(l.fields, field{i, fl})
		}
		l.enc, l.dec = structCodec(l.fields)
	case reflect.Interface:
		if t.NumMethod() > 0 {
			return nil, fmt.Errorf("%v has no encoding", t)
		}
		l.enc, l.dec = encAny, decAny
	default: // chan, func, complex, unsafe.Pointer
		return nil, fmt.Errorf("%v has no encoding", t)
	}
	return l, nil
}

// field is one exported struct field and its layout.
type field struct {
	index int
	l     *layout
}

// structCodec encodes a struct as its fields in order.
func structCodec(fields []field) (func([]byte, reflect.Value) []byte, func(*wire.Dec, reflect.Value, int)) {
	return func(buf []byte, v reflect.Value) []byte {
			for _, f := range fields {
				buf = f.l.enc(buf, v.Field(f.index))
			}
			return buf
		}, func(d *wire.Dec, v reflect.Value, depth int) {
			for _, f := range fields {
				f.l.dec(d, v.Field(f.index), depth)
			}
		}
}

// deeper reports whether one more level of nesting is allowed, failing
// d when it is not.
func deeper(d *wire.Dec, depth int) bool {
	if depth >= maxValueDepth {
		d.Fail(fmt.Errorf("%w: value nesting exceeds %d", wire.ErrCorrupt, maxValueDepth))
		return false
	}
	return d.Err() == nil
}

// typed adapts a vocabulary payload codec (value.go) to a layout of
// exactly type T, so common slices and maps skip per-element
// reflection.
func typed[T any](enc func([]byte, T) []byte, dec func(*wire.Dec) T) (func([]byte, reflect.Value) []byte, func(*wire.Dec, reflect.Value, int)) {
	return func(buf []byte, v reflect.Value) []byte {
			if v.CanAddr() {
				return enc(buf, *v.Addr().Interface().(*T))
			}
			return enc(buf, v.Interface().(T))
		}, func(d *wire.Dec, v reflect.Value, _ int) {
			*v.Addr().Interface().(*T) = dec(d)
		}
}

func encBool(buf []byte, v reflect.Value) []byte  { return wire.AppendBool(buf, v.Bool()) }
func decBool(d *wire.Dec, v reflect.Value, _ int) { v.SetBool(d.Bool()) }
func encInt(buf []byte, v reflect.Value) []byte   { return wire.AppendVarint(buf, v.Int()) }
func encUint(buf []byte, v reflect.Value) []byte  { return wire.AppendUvarint(buf, v.Uint()) }

// decInt and decUint fail an integer that does not fit the field's
// width as corrupt, rather than letting SetInt/SetUint wrap it.
func decInt(d *wire.Dec, v reflect.Value, _ int) {
	if x := d.Varint(); !v.OverflowInt(x) {
		v.SetInt(x)
	} else {
		d.Fail(fmt.Errorf("%w: %d overflows %v", wire.ErrCorrupt, x, v.Type()))
	}
}

func decUint(d *wire.Dec, v reflect.Value, _ int) {
	if x := d.Uvarint(); !v.OverflowUint(x) {
		v.SetUint(x)
	} else {
		d.Fail(fmt.Errorf("%w: %d overflows %v", wire.ErrCorrupt, x, v.Type()))
	}
}

func encFloat32(buf []byte, v reflect.Value) []byte {
	return wire.AppendFloat32(buf, float32(v.Float()))
}
func decFloat32(d *wire.Dec, v reflect.Value, _ int) { v.SetFloat(float64(d.Float32())) }
func encFloat64(buf []byte, v reflect.Value) []byte  { return wire.AppendFloat64(buf, v.Float()) }
func decFloat64(d *wire.Dec, v reflect.Value, _ int) { v.SetFloat(d.Float64()) }
func encString(buf []byte, v reflect.Value) []byte   { return wire.AppendString(buf, v.String()) }
func decString(d *wire.Dec, v reflect.Value, _ int)  { v.SetString(d.String()) }
func encBytes(buf []byte, v reflect.Value) []byte    { return wire.AppendBytes(buf, v.Bytes()) }
func decBytes(d *wire.Dec, v reflect.Value, _ int)   { v.SetBytes(d.BytesCopy()) }

// decBytesAlias decodes a []byte that aliases the input: the top-level
// byte fields of a wire body (RegisterWire), whose body is theirs.
func decBytesAlias(d *wire.Dec, v reflect.Value, _ int) { v.SetBytes(d.Bytes()) }

// encAny and decAny carry an any as one tagged value naming its own
// type.  A value outside the vocabulary that is not registered panics,
// as in AppendArgs.
func encAny(buf []byte, v reflect.Value) []byte {
	out, err := appendValue(buf, v.Interface())
	if err != nil {
		panic(fmt.Errorf("%w: value: %w", ErrCodec, err))
	}
	return out
}

func decAny(d *wire.Dec, v reflect.Value, depth int) {
	if x := decodeValue(d, depth+1); x != nil {
		v.Set(reflect.ValueOf(x))
	} else {
		v.SetZero()
	}
}

// encAnys and decAnys carry a []any field.  Elements are read one by
// one: boxing the slice header through Interface() would allocate.
func encAnys(buf []byte, v reflect.Value) []byte {
	buf = wire.AppendUvarint(buf, uint64(v.Len()))
	for i := 0; i < v.Len(); i++ {
		buf = encAny(buf, v.Index(i))
	}
	return buf
}

func decAnys(d *wire.Dec, v reflect.Value, depth int) {
	*v.Addr().Interface().(*[]any) = decodeAnys(d, depth+1)
}

// appendMap appends a count and the entries in encoded-key order: each
// entry is encoded once into pooled scratch, then copied out sorted.
func appendMap(buf []byte, v reflect.Value, kl, el *layout) []byte {
	buf = wire.AppendUvarint(buf, uint64(v.Len()))
	if v.Len() == 0 {
		return buf
	}
	type entry struct{ start, keyEnd, end int }
	entries := make([]entry, 0, v.Len())
	scratch := wire.Buffers.Get()
	k := reflect.New(kl.t).Elem()
	e := reflect.New(el.t).Elem()
	for it := v.MapRange(); it.Next(); {
		k.SetIterKey(it)
		e.SetIterValue(it)
		start := len(scratch)
		scratch = kl.enc(scratch, k)
		keyEnd := len(scratch)
		scratch = el.enc(scratch, e)
		entries = append(entries, entry{start, keyEnd, len(scratch)})
	}
	slices.SortFunc(entries, func(a, b entry) int {
		return bytes.Compare(scratch[a.start:a.keyEnd], scratch[b.start:b.keyEnd])
	})
	for _, en := range entries {
		buf = append(buf, scratch[en.start:en.end]...)
	}
	wire.Buffers.Put(scratch)
	return buf
}

func decMap(d *wire.Dec, v reflect.Value, kl, el *layout, depth int) {
	n := decLen(d)
	if n == 0 || !deeper(d, depth) {
		v.SetZero()
		return
	}
	m := reflect.MakeMapWithSize(v.Type(), n)
	k := reflect.New(kl.t).Elem()
	e := reflect.New(el.t).Elem()
	for i := 0; i < n && d.Err() == nil; i++ {
		kl.dec(d, k, depth+1)
		el.dec(d, e, depth+1)
		m.SetMapIndex(k, e)
	}
	v.Set(m)
}
