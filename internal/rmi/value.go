package rmi

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// A value outside this vocabulary is a vReg: its type's registered name
// (RegisterType), then its layout encoding (layout.go), length-prefixed.
// The name, not a registration-order id, identifies the type, so the
// bytes of a value never depend on what else the process registered or
// encoded before it.
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
	vReg // named layout: type name + length-prefixed layout payload
)

// maxValueDepth bounds []any and layout nesting so corrupted input
// cannot recurse the decoder into the ground.
const maxValueDepth = 32

// ---------------------------------------------------------------------
// Encode

// canAppendValue reports whether v belongs to the tagged-value
// vocabulary, whose types need no name.
func canAppendValue(v any) bool {
	switch v.(type) {
	case nil, bool, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, string, []byte, time.Duration,
		[]int, []int64, []float32, []float64, []string, []any,
		map[string]string, map[string]int, map[string]float64:
		return true
	}
	return false
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
		return appendInts(append(buf, vInts), x), nil
	case []int64:
		return appendInt64s(append(buf, vInt64s), x), nil
	case []float32:
		return appendFloat32s(append(buf, vFloat32s), x), nil
	case []float64:
		return appendFloat64s(append(buf, vFloat64s), x), nil
	case []string:
		return wire.AppendStrings(append(buf, vStrings), x), nil
	case []any:
		return appendAnys(append(buf, vAnys), x)
	case map[string]string:
		return appendMapSS(append(buf, vMapSS), x), nil
	case map[string]int:
		return appendMapSI(append(buf, vMapSI), x), nil
	case map[string]float64:
		return appendMapSF(append(buf, vMapSF), x), nil
	}
	t := reflect.TypeOf(v)
	layoutMu.RLock()
	l := named[t.String()]
	layoutMu.RUnlock()
	if l == nil || l.t != t {
		return nil, fmt.Errorf("%v inside an any is not registered (RegisterType)", t)
	}
	return appendNamed(buf, l, reflect.ValueOf(v)), nil
}

// appendNamed appends a vReg value.  The payload is length-prefixed so
// its decoder runs on a cursor of its own: the caller's cursor never
// reaches a layout's func values, which would move it to the heap.
func appendNamed(buf []byte, l *layout, v reflect.Value) []byte {
	payload := l.enc(wire.Buffers.Get(), v)
	buf = wire.AppendString(append(buf, vReg), l.t.String())
	buf = wire.AppendBytes(buf, payload)
	wire.Buffers.Put(payload)
	return buf
}

// appendBody appends a whole message body outside the vocabulary: the
// named layout of v, pointers followed, so a *T body decodes into a *T.
func appendBody(buf []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil, fmt.Errorf("nil %v", rv.Type())
		}
		rv = rv.Elem()
	}
	l, err := layoutOf(rv.Type())
	if err != nil {
		return nil, err
	}
	return appendNamed(buf, l, rv), nil
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

// Payloads of the vocabulary's slices and maps, shared by tagged values
// and by layouts of exactly these types.  Count 0 decodes as nil (the
// nil-versus-empty rule, layout.go).

func appendInts(buf []byte, x []int) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(x)))
	for _, e := range x {
		buf = wire.AppendVarint(buf, int64(e))
	}
	return buf
}

func decInts(d *wire.Dec) []int {
	n := decLen(d)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.Varint())
	}
	return out
}

func appendInt64s(buf []byte, x []int64) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(x)))
	for _, e := range x {
		buf = wire.AppendVarint(buf, e)
	}
	return buf
}

func decInt64s(d *wire.Dec) []int64 {
	n := decLen(d)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.Varint()
	}
	return out
}

// Float vectors are fixed-width: the count, then 4 or 8 little-endian
// bytes per element, written in one grow and read with one bounds
// check, which comes before the allocation, so a corrupt count costs
// nothing.

func appendFloat32s(buf []byte, x []float32) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(x)))
	n := len(buf)
	buf = slices.Grow(buf, 4*len(x))[:n+4*len(x)]
	for i, e := range x {
		binary.LittleEndian.PutUint32(buf[n+4*i:], math.Float32bits(e))
	}
	return buf
}

func decFloat32s(d *wire.Dec) []float32 {
	b := decFixed(d, 4)
	if b == nil {
		return nil
	}
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func appendFloat64s(buf []byte, x []float64) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(x)))
	n := len(buf)
	buf = slices.Grow(buf, 8*len(x))[:n+8*len(x)]
	for i, e := range x {
		binary.LittleEndian.PutUint64(buf[n+8*i:], math.Float64bits(e))
	}
	return buf
}

func decFloat64s(d *wire.Dec) []float64 {
	b := decFixed(d, 8)
	if b == nil {
		return nil
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// decFixed reads the count of a vector of size-byte elements and
// returns their bytes, aliasing the input; count 0 reads as nil.  A
// count beyond the remaining bytes fails d as wire.ErrTruncated, which
// allocates nothing.
func decFixed(d *wire.Dec, size int) []byte {
	n := d.Uvarint()
	if d.Err() != nil || n == 0 {
		return nil
	}
	if n > uint64(d.Remaining()/size) {
		d.Fail(wire.ErrTruncated)
		return nil
	}
	return d.Raw(int(n) * size)
}

// appendMapS appends a string-keyed map in sorted key order.  A map of
// fewer than orderMinKeys keys sorts them on the stack; one of more
// reuses the order its last encode sorted, once that order is proved
// to still be its key set (DESIGN.md §15).
func appendMapS[V any](buf []byte, m map[string]V, appendV func([]byte, V) []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(m)))
	if len(m) < orderMinKeys {
		var scratch [orderMinKeys]string
		keys := scratch[:0]
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		out, _ := appendInOrder(buf, m, keys, appendV)
		return out
	}
	addr := reflect.ValueOf(m).Pointer()
	entry := orderEntry(addr)
	// The remembered keys are distinct, so as many of them as m has
	// keys, each found in m, are exactly m's key set.
	if o := entry.Load(); o != nil && o.addr == addr && len(o.keys) == len(m) {
		if out, ok := appendInOrder(buf, m, o.keys, appendV); ok {
			return out
		}
	}
	o := &keyOrder{addr, sortedKeys(m)}
	entry.Store(o)
	out, _ := appendInOrder(buf, m, o.keys, appendV)
	return out
}

// appendInOrder appends m's entries under keys, in that order.  At the
// first key m lacks it stops and reports false, and the caller keeps
// its own buf.
func appendInOrder[V any](buf []byte, m map[string]V, keys []string, appendV func([]byte, V) []byte) ([]byte, bool) {
	for _, k := range keys {
		v, ok := m[k]
		if !ok {
			return buf, false
		}
		buf = appendV(wire.AppendString(buf, k), v)
	}
	return buf, true
}

// The key-order cache: the sorted keys of the string-keyed maps encoded
// last, in a small fully associative table.  An entry is immutable, so
// encoders share it through one atomic load; a miss replaces it whole.
// Whether a map hits depends only on how many other maps were encoded
// since it, never on where the heap put it.  Smaller maps sort without
// it: they are mostly fresh results, which would evict the long-lived
// images that hit.
const (
	orderEntries = 16
	orderMinKeys = 16
)

var (
	orders    [orderEntries]atomic.Pointer[keyOrder]
	orderNext atomic.Uint32 // the entry the next new address takes, round robin
)

// orderEntry is the entry that holds, or is to hold, the order of the
// map at addr: the first entry remembering addr, else the next one in
// round-robin order.
func orderEntry(addr uintptr) *atomic.Pointer[keyOrder] {
	for i := range orders {
		if o := orders[i].Load(); o != nil && o.addr == addr {
			return &orders[i]
		}
	}
	return &orders[(orderNext.Add(1)-1)%orderEntries]
}

// keyOrder is the sorted key set of the map at addr when it was encoded.
type keyOrder struct {
	addr uintptr
	keys []string
}

func appendMapSS(buf []byte, m map[string]string) []byte {
	return appendMapS(buf, m, wire.AppendString)
}

// The map decoders are written out, not generic over a func value: a
// *wire.Dec handed to a func value escapes, and the cursor of every
// DecodeArgs caller would move to the heap with it.  Each cuts its
// strings from one allocation: a pre-scan on a copy of the cursor
// measures them first (wire.Strs).
func decMapSS(d *wire.Dec) map[string]string {
	n := decLen(d)
	if n == 0 {
		return nil
	}
	var s wire.Strs
	c := *d
	for range n {
		s.Measure(&c)
		s.Measure(&c)
	}
	s.Alloc(&c)
	out := make(map[string]string, n)
	for range n {
		k := d.StringIn(&s)
		out[k] = d.StringIn(&s)
	}
	return out
}

func appendMapSI(buf []byte, m map[string]int) []byte {
	return appendMapS(buf, m, func(b []byte, v int) []byte { return wire.AppendVarint(b, int64(v)) })
}
func decMapSI(d *wire.Dec) map[string]int {
	n := decLen(d)
	if n == 0 {
		return nil
	}
	var s wire.Strs
	c := *d
	for range n {
		s.Measure(&c)
		c.Varint()
	}
	s.Alloc(&c)
	out := make(map[string]int, n)
	for range n {
		k := d.StringIn(&s)
		out[k] = int(d.Varint())
	}
	return out
}

func appendMapSF(buf []byte, m map[string]float64) []byte {
	return appendMapS(buf, m, wire.AppendFloat64)
}
func decMapSF(d *wire.Dec) map[string]float64 {
	n := decLen(d)
	if n == 0 {
		return nil
	}
	var s wire.Strs
	c := *d
	for range n {
		s.Measure(&c)
		c.Float64()
	}
	s.Alloc(&c)
	out := make(map[string]float64, n)
	for range n {
		k := d.StringIn(&s)
		out[k] = d.Float64()
	}
	return out
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
		return decInts(d)
	case vInt64s:
		return decInt64s(d)
	case vFloat32s:
		return decFloat32s(d)
	case vFloat64s:
		return decFloat64s(d)
	case vStrings:
		return d.Strings()
	case vAnys:
		return decodeAnys(d, depth+1)
	case vMapSS:
		return decMapSS(d)
	case vMapSI:
		return decMapSI(d)
	case vMapSF:
		return decMapSF(d)
	case vReg:
		name := d.Bytes()
		payload := d.Bytes()
		if d.Err() != nil {
			return nil
		}
		layoutMu.RLock()
		l := named[string(name)]
		layoutMu.RUnlock()
		if l == nil {
			d.Fail(fmt.Errorf("%w: unregistered type %q", wire.ErrCorrupt, name))
			return nil
		}
		v := reflect.New(l.t).Elem()
		if err := decodeLayout(l, payload, v, depth); err != nil {
			d.Fail(err)
			return nil
		}
		return v.Interface()
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

// appendAnys appends a count-prefixed []any (a method-argument vector,
// or a []any body).
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
func decodeAnys(d *wire.Dec, depth int) []any {
	n := decLen(d)
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]any, n)
	for i := range out {
		out[i] = decodeValue(d, depth)
		if d.Err() != nil {
			return nil
		}
	}
	return out
}

// AppendArgs appends a count-prefixed argument vector (each element a
// tagged value): the bytes of a []any field inside a layout, on its
// own.  Unencodable elements panic, matching the MustMarshal invariant
// for protocol structs: anything that reaches an argument vector was
// registered or belongs to the tagged vocabulary.
func AppendArgs(buf []byte, args []any) []byte {
	out, err := appendAnys(buf, args)
	if err != nil {
		panic(fmt.Errorf("%w: args: %w", ErrCodec, err))
	}
	return out
}

// DecodeArgs reads a count-prefixed argument vector.
func DecodeArgs(d *wire.Dec) []any { return decodeAnys(d, 0) }

// decs recycles layout decode cursors.  A cursor handed to a layout's
// func values escapes, so a stack cursor would move to the heap on
// every decode.
var decs = sync.Pool{New: func() any { return new(wire.Dec) }}

// decodeLayout decodes one layout payload, exactly, into v.
func decodeLayout(l *layout, payload []byte, v reflect.Value, depth int) error {
	d := decs.Get().(*wire.Dec)
	*d = wire.NewDec(payload)
	l.dec(d, v, depth+1)
	err := d.Finish()
	*d = wire.Dec{}
	decs.Put(d)
	return err
}

// decodeBody decodes a vReg body in place into target, whose type must
// be the one the body names.
func decodeBody(data []byte, target reflect.Value) error {
	d := wire.NewDec(data)
	name := d.Bytes()
	payload := d.Bytes()
	if err := d.Finish(); err != nil {
		return err
	}
	if t := target.Type(); string(name) != t.String() {
		return fmt.Errorf("%w: a %s body into %s", wire.ErrCorrupt, name, t)
	}
	l, err := layoutOf(target.Type())
	if err != nil {
		return err
	}
	return decodeLayout(l, payload, target, 0)
}

// decodeValueInto decodes a FormatValue body into the pointer v.
func decodeValueInto(data []byte, v any) error {
	if len(data) > 0 && data[0] == vReg {
		if rv := reflect.ValueOf(v); rv.Kind() == reflect.Pointer && !rv.IsNil() && rv.Elem().Kind() != reflect.Interface {
			return decodeBody(data[1:], rv.Elem())
		}
	}
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
