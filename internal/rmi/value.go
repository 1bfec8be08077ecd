package rmi

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sort"
	"time"

	"jsymphony/internal/rmi/wire"
)

// Tagged any-value encoding: the schema-aware path for the dynamically
// typed corners of the protocol — method arguments and results
// ([]any), and bodies that are a bare scalar or slice.  Each value is
// one tag byte plus a self-delimiting payload; concrete type identity
// round-trips exactly (an int comes back an int, not an int64),
// because handlers type-assert what they receive.
//
// Values outside this vocabulary ride a per-value gob capsule (vGob),
// which preserves the RegisterType contract unchanged: any registered
// concrete type still crosses inside an any, it just pays gob prices.
const (
	vNil byte = iota
	vFalse
	vTrue
	vInt
	vInt8
	vInt16
	vInt32
	vInt64
	vUint
	vUint8
	vUint16
	vUint32
	vUint64
	vFloat32
	vFloat64
	vString
	vBytes
	vDuration
	vInts
	vInt64s
	vFloat32s
	vFloat64s
	vStrings
	vAnys
	vMapSS
	vMapSI
	vMapSF
	vReg // registered wire type: id byte + length-prefixed payload
	vGob // gob capsule: length-prefixed gob bytes of anyBox
)

// maxValueDepth bounds []any nesting so corrupted input cannot recurse
// the decoder into the ground.
const maxValueDepth = 32

// anyBox wraps an interface value for the gob capsule; gob requires a
// concrete top-level type and handles the registered dynamic type of V.
type anyBox struct{ V any }

// ---------------------------------------------------------------------
// Registered wire types inside any values

var (
	valueCodecByType = map[reflect.Type]byte{}
	valueCodecByID   [256]reflect.Type
)

// RegisterValueCodec teaches the any-value path a concrete type that
// implements wire.Encoder (value or pointer receiver) with DecodeFrom
// on its pointer: values of that type carried inside []any arguments
// encode through their hand-written schema instead of a gob capsule.
// IDs are a one-byte namespace documented in DESIGN.md §15; reusing an
// id or registering after traffic starts is a programming error
// (registration happens in init functions, so no lock is taken).
func RegisterValueCodec(id byte, prototype any) {
	t := reflect.TypeOf(prototype)
	if _, ok := prototype.(wire.Encoder); !ok {
		panic(fmt.Sprintf("rmi: RegisterValueCodec(%v): not a wire.Encoder", t))
	}
	if _, ok := reflect.New(t).Interface().(wire.Decoder); !ok {
		panic(fmt.Sprintf("rmi: RegisterValueCodec(%v): *%v is not a wire.Decoder", t, t))
	}
	if prev := valueCodecByID[id]; prev != nil && prev != t {
		panic(fmt.Sprintf("rmi: RegisterValueCodec: id 0x%02x already bound to %v", id, prev))
	}
	valueCodecByType[t] = id
	valueCodecByID[id] = t
}

// ---------------------------------------------------------------------
// Encode

// canAppendValue reports whether v belongs to the tagged-value
// vocabulary (used by Marshal to pick the body format; inside []any
// the vGob capsule makes every value encodable).
func canAppendValue(v any) bool {
	switch v.(type) {
	case nil, bool, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, string, []byte, time.Duration,
		[]int, []int64, []float32, []float64, []string, []any,
		map[string]string, map[string]int, map[string]float64:
		return true
	}
	_, ok := valueCodecByType[reflect.TypeOf(v)]
	return ok
}

// appendValue appends one tagged value.
func appendValue(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, vNil), nil
	case bool:
		if x {
			return append(buf, vTrue), nil
		}
		return append(buf, vFalse), nil
	case int:
		return wire.AppendVarint(append(buf, vInt), int64(x)), nil
	case int8:
		return wire.AppendVarint(append(buf, vInt8), int64(x)), nil
	case int16:
		return wire.AppendVarint(append(buf, vInt16), int64(x)), nil
	case int32:
		return wire.AppendVarint(append(buf, vInt32), int64(x)), nil
	case int64:
		return wire.AppendVarint(append(buf, vInt64), x), nil
	case uint:
		return wire.AppendUvarint(append(buf, vUint), uint64(x)), nil
	case uint8:
		return wire.AppendUvarint(append(buf, vUint8), uint64(x)), nil
	case uint16:
		return wire.AppendUvarint(append(buf, vUint16), uint64(x)), nil
	case uint32:
		return wire.AppendUvarint(append(buf, vUint32), uint64(x)), nil
	case uint64:
		return wire.AppendUvarint(append(buf, vUint64), x), nil
	case float32:
		return wire.AppendFloat32(append(buf, vFloat32), x), nil
	case float64:
		return wire.AppendFloat64(append(buf, vFloat64), x), nil
	case string:
		return wire.AppendString(append(buf, vString), x), nil
	case []byte:
		return wire.AppendBytes(append(buf, vBytes), x), nil
	case time.Duration:
		return wire.AppendDuration(append(buf, vDuration), x), nil
	case []int:
		buf = wire.AppendUvarint(append(buf, vInts), uint64(len(x)))
		for _, e := range x {
			buf = wire.AppendVarint(buf, int64(e))
		}
		return buf, nil
	case []int64:
		buf = wire.AppendUvarint(append(buf, vInt64s), uint64(len(x)))
		for _, e := range x {
			buf = wire.AppendVarint(buf, e)
		}
		return buf, nil
	case []float32:
		buf = wire.AppendUvarint(append(buf, vFloat32s), uint64(len(x)))
		for _, e := range x {
			buf = wire.AppendFloat32(buf, e)
		}
		return buf, nil
	case []float64:
		buf = wire.AppendUvarint(append(buf, vFloat64s), uint64(len(x)))
		for _, e := range x {
			buf = wire.AppendFloat64(buf, e)
		}
		return buf, nil
	case []string:
		return wire.AppendStrings(append(buf, vStrings), x), nil
	case []any:
		buf = wire.AppendUvarint(append(buf, vAnys), uint64(len(x)))
		var err error
		for _, e := range x {
			if buf, err = appendValue(buf, e); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case map[string]string:
		buf = wire.AppendUvarint(append(buf, vMapSS), uint64(len(x)))
		for _, k := range sortedKeys(x) {
			buf = wire.AppendString(buf, k)
			buf = wire.AppendString(buf, x[k])
		}
		return buf, nil
	case map[string]int:
		buf = wire.AppendUvarint(append(buf, vMapSI), uint64(len(x)))
		for _, k := range sortedKeys(x) {
			buf = wire.AppendString(buf, k)
			buf = wire.AppendVarint(buf, int64(x[k]))
		}
		return buf, nil
	case map[string]float64:
		buf = wire.AppendUvarint(append(buf, vMapSF), uint64(len(x)))
		for _, k := range sortedKeys(x) {
			buf = wire.AppendString(buf, k)
			buf = wire.AppendFloat64(buf, x[k])
		}
		return buf, nil
	}
	if id, ok := valueCodecByType[reflect.TypeOf(v)]; ok {
		payload := v.(wire.Encoder).AppendTo(wire.Buffers.Get())
		buf = append(append(buf, vReg), id)
		buf = wire.AppendBytes(buf, payload)
		wire.Buffers.Put(payload)
		return buf, nil
	}
	// gob capsule: any registered concrete type, as before the codec.
	var gb bytes.Buffer
	if err := gob.NewEncoder(&gb).Encode(anyBox{V: v}); err != nil {
		return nil, err
	}
	return wire.AppendBytes(append(buf, vGob), gb.Bytes()), nil
}

// sortedKeys returns the map's keys in sorted order so the encoding is
// a deterministic function of the value (DESIGN.md §9).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// ---------------------------------------------------------------------
// Decode

// decodeValue reads one tagged value off d.
func decodeValue(d *wire.Dec, depth int) any {
	if depth > maxValueDepth {
		d.Fail(fmt.Errorf("%w: value nesting exceeds %d", wire.ErrCorrupt, maxValueDepth))
		return nil
	}
	switch tag := d.Byte(); tag {
	case vNil:
		return nil
	case vFalse:
		return false
	case vTrue:
		return true
	case vInt:
		return int(d.Varint())
	case vInt8:
		return int8(d.Varint())
	case vInt16:
		return int16(d.Varint())
	case vInt32:
		return int32(d.Varint())
	case vInt64:
		return d.Varint()
	case vUint:
		return uint(d.Uvarint())
	case vUint8:
		return uint8(d.Uvarint())
	case vUint16:
		return uint16(d.Uvarint())
	case vUint32:
		return uint32(d.Uvarint())
	case vUint64:
		return d.Uvarint()
	case vFloat32:
		return d.Float32()
	case vFloat64:
		return d.Float64()
	case vString:
		return d.String()
	case vBytes:
		return d.BytesCopy()
	case vDuration:
		return d.Duration()
	case vInts:
		n := decLen(d)
		out := make([]int, n)
		for i := range out {
			out[i] = int(d.Varint())
		}
		return out
	case vInt64s:
		n := decLen(d)
		out := make([]int64, n)
		for i := range out {
			out[i] = d.Varint()
		}
		return out
	case vFloat32s:
		n := decLen(d)
		out := make([]float32, n)
		for i := range out {
			out[i] = d.Float32()
		}
		return out
	case vFloat64s:
		n := decLen(d)
		out := make([]float64, n)
		for i := range out {
			out[i] = d.Float64()
		}
		return out
	case vStrings:
		n := decLen(d)
		out := make([]string, n)
		for i := range out {
			out[i] = d.String()
		}
		return out
	case vAnys:
		n := decLen(d)
		out := make([]any, n)
		for i := range out {
			out[i] = decodeValue(d, depth+1)
			if d.Err() != nil {
				return nil
			}
		}
		return out
	case vMapSS:
		n := decLen(d)
		out := make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := d.String()
			out[k] = d.String()
		}
		return out
	case vMapSI:
		n := decLen(d)
		out := make(map[string]int, n)
		for i := 0; i < n; i++ {
			k := d.String()
			out[k] = int(d.Varint())
		}
		return out
	case vMapSF:
		n := decLen(d)
		out := make(map[string]float64, n)
		for i := 0; i < n; i++ {
			k := d.String()
			out[k] = d.Float64()
		}
		return out
	case vReg:
		id := d.Byte()
		payload := d.Bytes()
		if d.Err() != nil {
			return nil
		}
		t := valueCodecByID[id]
		if t == nil {
			d.Fail(fmt.Errorf("%w: unregistered wire value id 0x%02x", wire.ErrCorrupt, id))
			return nil
		}
		pv := reflect.New(t)
		if err := pv.Interface().(wire.Decoder).DecodeFrom(payload); err != nil {
			d.Fail(err)
			return nil
		}
		return pv.Elem().Interface()
	case vGob:
		payload := d.Bytes()
		if d.Err() != nil {
			return nil
		}
		var box anyBox
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&box); err != nil {
			d.Fail(fmt.Errorf("%w: gob capsule: %v", wire.ErrCorrupt, err))
			return nil
		}
		return box.V
	default:
		d.Fail(fmt.Errorf("%w: unknown value tag 0x%02x", wire.ErrCorrupt, tag))
		return nil
	}
}

// decLen reads a count prefix, bounded by the remaining input so a
// corrupt count cannot provoke a giant allocation (each element costs
// at least one byte).
func decLen(d *wire.Dec) int {
	n := d.Uvarint()
	if d.Err() != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("%w: count %d exceeds %d remaining bytes", wire.ErrTruncated, n, d.Remaining()))
		return 0
	}
	return int(n)
}

// appendAnys appends a count-prefixed []any (the method-argument
// vector of invokeReq), exported to the core package through
// AppendArgs/DecodeArgs below.
func appendAnys(buf []byte, vs []any) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(len(vs)))
	var err error
	for _, v := range vs {
		if buf, err = appendValue(buf, v); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// decodeAnys reads a count-prefixed []any; count 0 decodes as nil.
func decodeAnys(d *wire.Dec) []any {
	n := decLen(d)
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]any, n)
	for i := range out {
		out[i] = decodeValue(d, 0)
		if d.Err() != nil {
			return nil
		}
	}
	return out
}

// AppendArgs appends a count-prefixed argument vector (each element a
// tagged value) — the hook the core protocol structs use for their
// []any fields.  Unencodable elements panic, matching the MustMarshal
// invariant for protocol structs: anything that reaches an argument
// vector was registered or belongs to the tagged vocabulary.
func AppendArgs(buf []byte, args []any) []byte {
	out, err := appendAnys(buf, args)
	if err != nil {
		panic(fmt.Errorf("%w: args: %v", ErrCodec, err))
	}
	return out
}

// DecodeArgs reads a count-prefixed argument vector.
func DecodeArgs(d *wire.Dec) []any { return decodeAnys(d) }

// AppendValue appends one tagged value (a result, an argument).
func AppendValue(buf []byte, v any) []byte {
	out, err := appendValue(buf, v)
	if err != nil {
		panic(fmt.Errorf("%w: value: %v", ErrCodec, err))
	}
	return out
}

// DecodeValue reads one tagged value.
func DecodeValue(d *wire.Dec) any { return decodeValue(d, 0) }

// decodeValueInto decodes a FormatValue body into the pointer v.
func decodeValueInto(data []byte, v any) error {
	d := wire.NewDec(data)
	val := decodeValue(&d, 0)
	if err := d.Finish(); err != nil {
		return err
	}
	// Fast paths for the hottest whole-body value types.
	switch p := v.(type) {
	case *any:
		*p = val
		return nil
	case *string:
		if s, ok := val.(string); ok {
			*p = s
			return nil
		}
	case *[]string:
		if s, ok := val.([]string); ok {
			*p = s
			return nil
		}
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("decode into non-pointer %T", v)
	}
	elem := rv.Elem()
	if val == nil {
		elem.SetZero()
		return nil
	}
	dv := reflect.ValueOf(val)
	if !dv.Type().AssignableTo(elem.Type()) {
		return fmt.Errorf("%w: value of type %T into %T", wire.ErrCorrupt, val, v)
	}
	elem.Set(dv)
	return nil
}
