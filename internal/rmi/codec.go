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
	// FormatWire marks a schema-aware encoding: a struct tag byte
	// follows, then the struct's hand-written field layout.
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
// that layer, with two tiers:
//
//   - Internal protocol structs implement wire.Encoder and encode
//     through their hand-written schema — no reflection, one exact
//     allocation.
//   - Everything else encodes as a single tagged value: scalars and
//     common slices natively, any other type (pointers followed) by its
//     layout under its type's name.  A body's type needs no
//     registration — the receiver names the type it decodes into — but
//     a value inside an interface (a []any argument) does, as Java
//     requires Serializable classes on the classpath.
func Marshal(v any) ([]byte, error) {
	buf := wire.Buffers.Get()
	var err error
	if e, ok := v.(wire.Encoder); ok {
		buf = e.AppendTo(append(buf, FormatWire))
	} else if canAppendValue(v) {
		buf, err = appendValue(append(buf, FormatValue), v)
	} else {
		buf, err = appendBody(append(buf, FormatValue), v)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: marshal: %v", ErrCodec, err)
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	wire.Buffers.Put(buf)
	return out, nil
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
		return fmt.Errorf("%w: unmarshal: %v", ErrCodec, wire.ErrTruncated)
	}
	switch data[0] {
	case FormatWire:
		d, ok := v.(wire.Decoder)
		if !ok {
			return fmt.Errorf("%w: unmarshal: %T does not implement wire.Decoder for a wire-format body", ErrCodec, v)
		}
		if err := d.DecodeFrom(data[1:]); err != nil {
			return fmt.Errorf("%w: unmarshal: %v", ErrCodec, err)
		}
		return nil
	case FormatValue:
		if err := decodeValueInto(data[1:], v); err != nil {
			return fmt.Errorf("%w: unmarshal: %v", ErrCodec, err)
		}
		return nil
	}
	return fmt.Errorf("%w: unmarshal: %v: unknown format tag 0x%02x", ErrCodec, wire.ErrCorrupt, data[0])
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
