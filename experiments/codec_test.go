package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"jsymphony/internal/codebase"
	"jsymphony/internal/rmi"
	"jsymphony/workloads/kv"
	"jsymphony/workloads/mandelbrot"
	"jsymphony/workloads/matmul"
)

// fill sets every exported field reachable from v to a non-zero value,
// so a field the codec drops shows up as a DeepEqual mismatch.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fill(s.Index(i), n)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, n)
			fill(e, n)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(p.Elem(), n)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fill(f, n)
			}
		}
	default:
		panic(fmt.Sprintf("fill: no rule for %s", v.Type()))
	}
}

// exampleShapes stand in for the classes of examples/, which are
// package main and cannot be imported: each has the same exported
// fields as its original.
type (
	exampleGreeter struct{ Greetings int }
	exampleStage   struct{ Processed int }
	exampleCache   struct{ Entries map[string]string }
)

// TestStateRoundTrip: the state of every registered class — workloads,
// experiments, the examples' shapes — and every registered wire type
// comes back DeepEqual through rmi.Marshal/Unmarshal.  Class state
// travels as a body (migration, checkpoints, replica seeds); wire types
// travel inside []any argument vectors too.
func TestStateRoundTrip(t *testing.T) {
	var cases []struct {
		name  string
		fresh func() any
	}
	for _, name := range codebase.Default.Names() {
		c, _ := codebase.Default.Lookup(name)
		cases = append(cases, struct {
			name  string
			fresh func() any
		}{name, c.Factory})
	}
	for _, v := range []any{
		&exampleGreeter{}, &exampleStage{}, &exampleCache{},
		&mandelbrot.RowSpec{}, &mandelbrot.RowResult{}, &matmul.Task{}, &matmul.Result{}, &kv.ReadReport{},
	} {
		typ := reflect.TypeOf(v).Elem()
		cases = append(cases, struct {
			name  string
			fresh func() any
		}{typ.String(), func() any { return reflect.New(typ).Interface() }})
	}
	for _, c := range cases {
		in := c.fresh()
		n := 0
		fill(reflect.ValueOf(in).Elem(), &n)
		body, err := rmi.Marshal(in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out := c.fresh()
		if err := rmi.Unmarshal(body, out); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%s state round trip:\n in  %+v\n out %+v", c.name, in, out)
		}
	}
	for _, v := range []any{
		mandelbrot.RowSpec{}, mandelbrot.RowResult{}, matmul.Task{}, matmul.Result{}, kv.ReadReport{},
	} {
		in := reflect.New(reflect.TypeOf(v)).Elem()
		n := 0
		fill(in, &n)
		args := []any{in.Interface(), 7}
		body, err := rmi.Marshal(args)
		if err != nil {
			t.Fatalf("%T in []any: %v", v, err)
		}
		var out []any
		if err := rmi.Unmarshal(body, &out); err != nil {
			t.Fatalf("%T in []any: %v", v, err)
		}
		if !reflect.DeepEqual(args, out) {
			t.Errorf("%T in []any:\n in  %+v\n out %+v", v, args, out)
		}
	}
}
