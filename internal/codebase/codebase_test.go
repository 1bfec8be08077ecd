package codebase

import (
	"strings"
	"testing"
)

type widget struct {
	N int
	S string
}

func (w *widget) Bump(by int) int          { w.N += by; return w.N }
func (w *widget) Label() string            { return w.S }
func (w *widget) Set(s string)             { w.S = s }
func (w *widget) Fail() error              { return errTest }
func (w *widget) Both(x int) (int, error)  { return x * 2, nil }
func (w *widget) Sum(a, b float64) float64 { return a + b }
func (w *widget) Count() int               { return w.N }

// lead stands in for a host's leading value (core passes its *Ctx).
type lead struct{ base int }

func (w *widget) Offset(l *lead, by int) int { return l.base + by }

var errTest = &strErr{"kaput"}

type strErr struct{ s string }

func (e *strErr) Error() string { return e.s }

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.Register("Widget", 2048, func() any { return &widget{} })
	r.Register("Tiny", 16, func() any { return &widget{} })
	return r
}

func TestRegistryRegisterLookup(t *testing.T) {
	r := newTestRegistry(t)
	c, ok := r.Lookup("Widget")
	if !ok || c.Size != 2048 || c.Name != "Widget" {
		t.Fatalf("Lookup = %+v, %v", c, ok)
	}
	if _, ok := r.Lookup("Ghost"); ok {
		t.Fatal("found unregistered class")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "Tiny" || names[1] != "Widget" {
		t.Fatalf("Names = %v", names)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	r := newTestRegistry(t)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Register("Widget", 1, func() any { return &widget{} })
}

func TestRegisterNilFactoryPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("nil factory did not panic")
		}
	}()
	r.Register("X", 1, nil)
}

func TestStoreLoadAccounting(t *testing.T) {
	r := newTestRegistry(t)
	s := NewStore(r)
	n, err := s.Load("Widget", "Tiny")
	if err != nil || n != 2064 {
		t.Fatalf("Load = %d, %v; want 2064 bytes", n, err)
	}
	// Reloading is idempotent.
	n, err = s.Load("Widget")
	if err != nil || n != 0 {
		t.Fatalf("reload = %d, %v; want 0 new bytes", n, err)
	}
	if len(s.loaded) != 2 || !s.loaded["Tiny"] || !s.loaded["Widget"] {
		t.Fatalf("loaded = %v", s.loaded)
	}
}

func TestStoreLoadUnknownClass(t *testing.T) {
	s := NewStore(newTestRegistry(t))
	if _, err := s.Load("Ghost"); err == nil {
		t.Fatal("loading unknown class succeeded")
	}
}

func TestStoreNew(t *testing.T) {
	s := NewStore(newTestRegistry(t))
	if _, err := s.New("Widget"); err == nil || !strings.Contains(err.Error(), ErrNotLoaded) {
		t.Fatalf("New before Load: err = %v, want ErrNotLoaded", err)
	}
	s.Load("Widget")
	obj, err := s.New("Widget")
	if err != nil {
		t.Fatal(err)
	}
	w, ok := obj.(*widget)
	if !ok || w.N != 0 {
		t.Fatalf("New returned %T %+v", obj, obj)
	}
	// Instances are independent.
	obj2, _ := s.New("Widget")
	w.N = 7
	if obj2.(*widget).N != 0 {
		t.Fatal("factory returned shared instance")
	}
}

func TestInvokeBasics(t *testing.T) {
	w := &widget{S: "x"}
	got, err := Invoke(w, "Bump", []any{5})
	if err != nil || got.(int) != 5 {
		t.Fatalf("Bump = %v, %v", got, err)
	}
	got, err = Invoke(w, "Label", nil)
	if err != nil || got.(string) != "x" {
		t.Fatalf("Label = %v, %v", got, err)
	}
	got, err = Invoke(w, "Set", []any{"y"})
	if err != nil || got != nil || w.S != "y" {
		t.Fatalf("Set: got=%v err=%v S=%q", got, err, w.S)
	}
	// A method whose first parameter takes the leading value receives it.
	mk := func() *lead { return &lead{base: 40} }
	got, err = InvokeLead(w, "Offset", []any{2}, mk)
	if err != nil || got.(int) != 42 {
		t.Fatalf("Offset = %v, %v", got, err)
	}
	// A method without one is unaffected, and the value is never built.
	got, err = InvokeLead(w, "Bump", []any{1}, func() *lead {
		t.Fatal("leading value built for Bump")
		return nil
	})
	if err != nil || got.(int) != 6 {
		t.Fatalf("Bump = %v, %v", got, err)
	}
}

func TestInvokeErrors(t *testing.T) {
	w := &widget{}
	if _, err := Invoke(w, "Fail", nil); err == nil || err.Error() != "kaput" {
		t.Fatalf("Fail err = %v", err)
	}
	if got, err := Invoke(w, "Both", []any{21}); err != nil || got.(int) != 42 {
		t.Fatalf("Both = %v, %v", got, err)
	}
	if _, err := Invoke(w, "Bump", []any{"str"}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	// The unknown-method and arity errors read the same whether the
	// caller passes a leading value in args or has InvokeLead supply it:
	// the leading value counts as a parameter.
	mk := func() *lead { return &lead{} }
	for _, c := range []struct {
		method string
		args   []any // InvokeLead passes the same args without a leading *lead
		want   string
	}{
		{"NoSuch", nil, `codebase: *codebase.widget has no method "NoSuch"`},
		{"Bump", []any{1, 2}, `codebase: method "Bump" takes 1 parameters, got 2`},
		{"Offset", []any{&lead{}}, `codebase: method "Offset" takes 2 parameters, got 1`},
	} {
		if _, err := Invoke(w, c.method, c.args); err == nil || err.Error() != c.want {
			t.Fatalf("Invoke %s%v: err = %v, want %q", c.method, c.args, err, c.want)
		}
		args := c.args
		if len(args) > 0 {
			if _, ok := args[0].(*lead); ok {
				args = args[1:]
			}
		}
		if _, err := InvokeLead(w, c.method, args, mk); err == nil || err.Error() != c.want {
			t.Fatalf("InvokeLead %s%v: err = %v, want %q", c.method, args, err, c.want)
		}
	}
	if _, err := Invoke(nil, "Bump", nil); err == nil {
		t.Fatal("nil object accepted")
	}
}

func TestInvokeNumericConversion(t *testing.T) {
	// A caller's argument may be another integer width than the
	// parameter; Invoke must convert to the parameter type.
	w := &widget{}
	got, err := Invoke(w, "Bump", []any{int64(3)})
	if err != nil || got.(int) != 3 {
		t.Fatalf("int64→int conversion: %v, %v", got, err)
	}
	got, err = Invoke(w, "Sum", []any{1, 2.5})
	if err != nil || got.(float64) != 3.5 {
		t.Fatalf("mixed numeric: %v, %v", got, err)
	}
}

func TestInvokeNilArgument(t *testing.T) {
	w := &widget{}
	// Set takes a string: nil must be rejected.
	if _, err := Invoke(w, "Set", []any{nil}); err == nil {
		t.Fatal("nil for string parameter accepted")
	}
}

func TestDefaultRegistry(t *testing.T) {
	// The package-level Default registry must be usable; register a
	// uniquely named class to avoid cross-test interference.
	Register("codebase_test.Unique", 100, func() any { return &widget{} })
	if _, ok := Default.Lookup("codebase_test.Unique"); !ok {
		t.Fatal("Default registry lookup failed")
	}
}
