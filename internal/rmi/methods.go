package rmi

import (
	"fmt"
	"time"

	"jsymphony/internal/sched"
)

// Method serves one remote method of a service whose state is an R: it
// takes the request body and returns the reply body.  Typed and Void
// derive one from a typed function; a method that takes or returns no
// body is written raw, so its nil bodies stay nil on the wire.
type Method[R any] func(r R, p sched.Proc, body []byte) ([]byte, error)

// Methods is a service's method table, the part of a Java/RMI skeleton
// (§5) that maps a method name to its unmarshal-call-marshal stub.  A
// table is built once, over method expressions such as
// (*Runtime).invoke, and bound to each instance by Serve, so a node
// that boots allocates one Handler per service, not one per method.
type Methods[R any] map[string]Method[R]

// Serve binds the table to r, giving the service's Handler.  A name the
// table lacks fails with `rmi: no method "<name>"` for every service
// alike.
func (ms Methods[R]) Serve(r R) Handler {
	return func(p sched.Proc, _, method string, body []byte) ([]byte, error) {
		m := ms[method]
		if m == nil {
			return nil, fmt.Errorf("rmi: no method %q", method)
		}
		return m(r, p, body)
	}
}

// Typed makes f a Method: the request body decodes into a Req, and f's
// result, encoded as Marshal encodes it, is the reply.  An undecodable
// request or an unencodable result fails the call with ErrCodec's
// text.  A struct request decodes into pooled scratch and f gets a
// copy, so the scratch is free again once f has it; a struct result
// encodes from scratch, unboxed.  "Struct" is a protocol struct
// (RegisterWire) here and below; both types are looked up at the
// method's first call (lazyWire).
func Typed[R, Req, Resp any](f func(R, sched.Proc, Req) (Resp, error)) Method[R] {
	var in lazyWire[Req]
	var out lazyWire[Resp]
	return func(r R, p sched.Proc, body []byte) ([]byte, error) {
		req, err := unmarshalAs[Req](in.get(), body)
		if err != nil {
			return nil, err
		}
		resp, err := f(r, p, req)
		if err != nil {
			return nil, err
		}
		return marshalAs(out.get(), resp)
	}
}

// Void is Typed for a method whose reply has no body.
func Void[R, Req any](f func(R, sched.Proc, Req) error) Method[R] {
	var in lazyWire[Req]
	return func(r R, p sched.Proc, body []byte) ([]byte, error) {
		req, err := unmarshalAs[Req](in.get(), body)
		if err != nil {
			return nil, err
		}
		return nil, f(r, p, req)
	}
}

// Ask is the stub side of Typed: it calls service.method on node `to`
// with req marshaled as the body and decodes the reply into a Resp, a
// struct through pooled scratch.  A request that cannot be encoded
// fails with ErrCodec before anything is sent.  Ask always sends a
// body; a method that takes none is called raw (Station.Call with a nil
// body), as it is served raw.
func Ask[Req, Resp any](p sched.Proc, st *Station, to, service, method string, req Req, timeout time.Duration) (Resp, error) {
	var zero Resp
	body, err := Marshal(req)
	if err != nil {
		return zero, err
	}
	out, err := st.Call(p, to, service, method, body, timeout)
	if err != nil {
		return zero, err
	}
	return unmarshalAs[Resp](wireFor[Resp](), out)
}
