package rmi

import (
	"errors"
	"fmt"
	"reflect"

	"jsymphony/internal/rmi/wire"
)

// The wire format of every message body starts with a one-byte format
// tag selecting the codec (DESIGN.md §15); the decoder dispatches per
// message.
const (
	// FormatWire marks a protocol struct (RegisterWire): its struct tag
	// byte follows, then the struct's layout.
	FormatWire = 0x57 // 'W'
	// FormatValue marks a single tagged value (see value.go): scalars,
	// common slices and maps, and every other type by its derived
	// layout (layout.go).
	FormatValue = 0x56 // 'V'
)

// ErrCodec wraps every Marshal/Unmarshal failure so callers have one
// sentinel for "the body was undecodable" distinct from transport
// errors.
var ErrCodec = errors.New("rmi: codec")

// Marshal encodes v for the wire.  JavaSymphony requires "all objects
// that can be created remotely to be serializable" (§4.3); this is
// that layer, one derived layout per type under two framings:
//
//   - A protocol struct registered with RegisterWire (or a pointer to
//     one) is FormatWire, its one-byte struct tag, then its layout.
//   - Everything else encodes as a single tagged value: scalars and
//     common slices natively, any other type (pointers followed) by its
//     layout under its type's name.  A body's type needs no
//     registration — the receiver names the type it decodes into — but
//     a value inside an interface (a []any argument) does, as Java
//     requires Serializable classes on the classpath.
//
// A value that cannot be encoded (an unregistered type inside an any,
// a channel, a func) fails with ErrCodec; it never panics.
func Marshal(v any) ([]byte, error) {
	buf, err := appendMarshal(wire.Buffers.Get(), v)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	wire.Buffers.Put(buf)
	return out, nil
}

// appendMarshal appends v's body, the bytes Marshal returns, to buf.
func appendMarshal(buf []byte, v any) (out []byte, err error) {
	defer func() {
		// A layout encoder has no error return, so an unencodable value
		// inside an any panics there with an ErrCodec error (encAny).
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok || !errors.Is(e, ErrCodec) {
				panic(r)
			}
			out, err = nil, e
		}
	}()
	if canAppendValue(v) {
		buf, err = appendValue(append(buf, FormatValue), v)
	} else if w, rv := wireOf(v); w != nil {
		buf = w.encode(append(buf, FormatWire), rv)
	} else {
		buf, err = appendBody(append(buf, FormatValue), v)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: marshal: %w", ErrCodec, err)
	}
	return buf, nil
}

// MustMarshal is Marshal for values whose encodability is a program
// invariant (internal protocol structs).
func MustMarshal(v any) []byte {
	b, err := Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Unmarshal decodes data into v (a pointer), dispatching on the format
// tag.  A tag this codec does not define — including 0x47, the retired
// gob format — fails with ErrCodec as corrupt input.
func Unmarshal(data []byte, v any) error {
	if len(data) == 0 {
		return fmt.Errorf("%w: unmarshal: %w", ErrCodec, wire.ErrTruncated)
	}
	var err error
	switch data[0] {
	case FormatWire:
		err = decodeWire(data[1:], v)
	case FormatValue:
		err = decodeValueInto(data[1:], v)
	default:
		err = fmt.Errorf("%w: unknown format tag 0x%02x", wire.ErrCorrupt, data[0])
	}
	if err != nil {
		return fmt.Errorf("%w: unmarshal: %w", ErrCodec, err)
	}
	return nil
}

// RegisterType makes a concrete type transmissible inside interface
// values (method parameters and results are []any on the wire): it
// derives the type's layout and binds it to the type's name,
// reflect.Type.String().  Anything a handler may receive inside an any
// must be registered up front.  A type with no encoding (a channel,
// function or interface field) or a name already bound to another type
// panics: registration happens at init, where that is a programming
// error.
func RegisterType(v any) {
	t := reflect.TypeOf(v)
	if canAppendValue(v) {
		return // the tagged vocabulary names its own types
	}
	l, err := layoutOf(t)
	if err != nil {
		panic(fmt.Sprintf("rmi: RegisterType(%v): %v", t, err))
	}
	layoutMu.Lock()
	defer layoutMu.Unlock()
	if prev := named[t.String()]; prev != nil && prev.t != t {
		panic(fmt.Sprintf("rmi: RegisterType(%v): name already bound to another type", t))
	}
	named[t.String()] = l
}

// wireType is a protocol struct registered under its struct tag.  Its
// layout is the struct's own, except that top-level []byte fields
// alias the body they arrive in: a Marshal output is never reused, and
// the State images inside protocol bodies are decoded again anyway.
type wireType struct {
	tag byte
	l   *layout
}

// encode appends the struct tag, then v's fields.
func (w *wireType) encode(buf []byte, v reflect.Value) []byte {
	return w.l.enc(append(buf, w.tag), v)
}

// The registration table: RegisterWire fills it at init and it is only
// read afterwards, so Marshal and Unmarshal take no lock.
var (
	wireTypes = map[reflect.Type]*wireType{} // a struct and its pointer
	wireTags  [256]*wireType
)

// RegisterWire makes a protocol struct a wire body: Marshal encodes it,
// or a pointer to it, as FormatWire, tag, then its layout, and
// Unmarshal finds the type again by its tag.  Nested in another layout
// the struct is its bare fields.  It is also registered by name
// (RegisterType), so it may ride inside an any.  Call it from init
// only: a tag or type registered twice panics.  A layout change
// retires the tag; tags are never reused.
func RegisterWire(tag byte, v any) { registerWire(tag, v) }

func registerWire(tag byte, v any) *wireType {
	t := reflect.TypeOf(v)
	if t.Kind() != reflect.Struct || wireTags[tag] != nil || wireTypes[t] != nil {
		panic(fmt.Sprintf("rmi: RegisterWire(0x%02x, %v): not a struct, or tag or type already registered", tag, t))
	}
	RegisterType(v)
	l, _ := layoutOf(t)
	fields := append([]field(nil), l.fields...)
	for i, f := range fields {
		if f.l.t.Kind() == reflect.Slice && f.l.t.Elem().Kind() == reflect.Uint8 {
			fields[i].l = &layout{t: f.l.t, enc: encBytes, dec: decBytesAlias}
		}
	}
	w := &wireType{tag: tag, l: &layout{t: t, fields: fields}}
	w.l.enc, w.l.dec = structCodec(fields)
	wireTypes[t], wireTypes[reflect.PointerTo(t)] = w, w
	wireTags[tag] = w
	return w
}

// wireOf returns v's registration and the struct value to encode, or
// nil when v is not a registered struct or a non-nil pointer to one.
func wireOf(v any) (*wireType, reflect.Value) {
	t := reflect.TypeOf(v)
	w := wireTypes[t]
	if w == nil {
		return nil, reflect.Value{}
	}
	rv := reflect.ValueOf(v)
	if t != w.l.t {
		if rv.IsNil() {
			return nil, reflect.Value{}
		}
		rv = rv.Elem()
	}
	return w, rv
}

// decodeWire decodes a FormatWire body (tag first) into the pointer v,
// whose element type must be the one the tag names.
func decodeWire(data []byte, v any) error {
	if len(data) == 0 {
		return wire.ErrTruncated
	}
	w := wireTags[data[0]]
	if w == nil {
		return fmt.Errorf("%w: unknown struct tag 0x%02x", wire.ErrCorrupt, data[0])
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() || rv.Type().Elem() != w.l.t {
		return fmt.Errorf("%w: a %v body into %T", wire.ErrCorrupt, w.l.t, v)
	}
	return decodeLayout(w.l, data[1:], rv.Elem(), 0)
}
