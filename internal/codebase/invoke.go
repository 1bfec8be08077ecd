package codebase

import (
	"errors"
	"fmt"
	"reflect"
)

// Invoke calls the named exported method on obj with args, playing the
// role of Java reflection under sinvoke/ainvoke/oinvoke (§4.5):
// JavaSymphony methods are addressed by name and receive their parameters
// as an array of objects.
//
// Supported method shapes (T is any type the rmi codec encodes):
//
//	func (o *C) M(args...) T
//	func (o *C) M(args...) (T, error)
//	func (o *C) M(args...) error
//	func (o *C) M(args...)
//
// The result is the single non-error return value (nil if none).  A
// returned non-nil error is propagated.  Argument values are converted to
// the parameter types when assignable or numerically convertible: a call
// site passes its arguments as []any, where an untyped constant becomes
// an int or a float64 whatever the parameter's width, and the codec
// keeps that type exactly, so SInvoke(p, "Add", 1) arrives as an int
// even when Add takes an int64.
func Invoke(obj any, method string, args []any) (any, error) {
	if obj == nil {
		return nil, errors.New("codebase: invoke on nil object")
	}
	v := reflect.ValueOf(obj)
	m := v.MethodByName(method)
	if !m.IsValid() {
		return nil, fmt.Errorf("codebase: %T has no method %q", obj, method)
	}
	mt := m.Type()
	in, err := buildArgs(mt, method, args)
	if err != nil {
		return nil, err
	}
	out := m.Call(in)
	return splitResults(method, out)
}

// buildArgs converts args to the method's parameter types.
func buildArgs(mt reflect.Type, method string, args []any) ([]reflect.Value, error) {
	want := mt.NumIn()
	if mt.IsVariadic() {
		return nil, fmt.Errorf("codebase: variadic method %q not supported", method)
	}
	if len(args) != want {
		return nil, fmt.Errorf("codebase: method %q takes %d parameters, got %d", method, want, len(args))
	}
	in := make([]reflect.Value, want)
	for i, a := range args {
		pt := mt.In(i)
		if a == nil {
			switch pt.Kind() {
			case reflect.Ptr, reflect.Interface, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func:
				in[i] = reflect.Zero(pt)
				continue
			default:
				return nil, fmt.Errorf("codebase: nil argument %d for non-nilable parameter %s of %q", i, pt, method)
			}
		}
		av := reflect.ValueOf(a)
		switch {
		case av.Type().AssignableTo(pt):
			in[i] = av
		case av.Type().ConvertibleTo(pt) && convertSafe(av.Type(), pt):
			in[i] = av.Convert(pt)
		default:
			return nil, fmt.Errorf("codebase: argument %d of %q is %s, want %s", i, method, av.Type(), pt)
		}
	}
	return in, nil
}

// convertSafe permits only numeric-to-numeric conversions, avoiding
// surprising string/byte-slice coercions.
func convertSafe(from, to reflect.Type) bool {
	return isNumeric(from.Kind()) && isNumeric(to.Kind())
}

func isNumeric(k reflect.Kind) bool {
	switch k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

var errType = reflect.TypeOf((*error)(nil)).Elem()

// splitResults maps reflect.Call output to (result, error).
func splitResults(method string, out []reflect.Value) (any, error) {
	switch len(out) {
	case 0:
		return nil, nil
	case 1:
		if out[0].Type().Implements(errType) {
			return nil, asError(out[0])
		}
		return out[0].Interface(), nil
	case 2:
		if !out[1].Type().Implements(errType) {
			return nil, fmt.Errorf("codebase: method %q second result must be error", method)
		}
		if err := asError(out[1]); err != nil {
			return nil, err
		}
		return out[0].Interface(), nil
	default:
		return nil, fmt.Errorf("codebase: method %q returns %d values; at most (T, error) supported", method, len(out))
	}
}

func asError(v reflect.Value) error {
	if v.IsNil() {
		return nil
	}
	return v.Interface().(error)
}
