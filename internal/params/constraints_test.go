package params

import (
	"strings"
	"testing"
	"testing/quick"
)

// paperConstraints builds the exact example set from §4.2 of the paper.
func paperConstraints(t *testing.T) *Constraints {
	t.Helper()
	cs := NewConstraints()
	for _, c := range []struct {
		p  ID
		op string
		v  any
	}{
		{NodeName, "!=", "milena"},
		{CPUSysLoad, "<=", 10},
		{Idle, ">=", 50},
		{AvailMem, ">=", 50},
		{SwapRatio, "<=", 0.3},
	} {
		if err := cs.Set(c.p, c.op, c.v); err != nil {
			t.Fatalf("Set(%v %s %v): %v", c.p, c.op, c.v, err)
		}
	}
	return cs
}

func goodSnapshot() Snapshot {
	return Snapshot{
		NodeName:   Text("rachel"),
		CPUSysLoad: Float(5),
		Idle:       Float(80),
		AvailMem:   Float(128),
		SwapRatio:  Float(0.1),
	}
}

func TestPaperExample(t *testing.T) {
	cs := paperConstraints(t)
	if cs.Len() != 5 {
		t.Fatalf("Len = %d", cs.Len())
	}
	if !cs.Eval(goodSnapshot()) {
		t.Fatal("good snapshot rejected")
	}
	// Each violation must reject.
	mods := []func(Snapshot){
		func(s Snapshot) { s.SetText(NodeName, "milena") },
		func(s Snapshot) { s.SetFloat(CPUSysLoad, 50) },
		func(s Snapshot) { s.SetFloat(Idle, 10) },
		func(s Snapshot) { s.SetFloat(AvailMem, 10) },
		func(s Snapshot) { s.SetFloat(SwapRatio, 0.9) },
	}
	for i, mod := range mods {
		s := goodSnapshot()
		mod(s)
		if cs.Eval(s) {
			t.Errorf("violation %d accepted", i)
		}
	}
}

func TestConstraintMissingParam(t *testing.T) {
	cs := NewConstraints()
	cs.MustSet(Idle, ">=", 50)
	if cs.Eval(Snapshot{}) {
		t.Fatal("missing parameter satisfied >= constraint")
	}
	ne := NewConstraints()
	ne.MustSet(NodeName, "!=", "milena")
	if !ne.Eval(Snapshot{}) {
		t.Fatal("missing parameter failed != constraint")
	}
}

func TestSetValidation(t *testing.T) {
	cs := NewConstraints()
	if err := cs.Set("bogus.param", ">=", 1); err == nil {
		t.Error("unknown parameter accepted")
	}
	if err := cs.Set(Idle, "~=", 1); err == nil {
		t.Error("bad operator accepted")
	}
	if err := cs.Set(Idle, ">=", struct{}{}); err == nil {
		t.Error("bad value type accepted")
	}
	if cs.Len() != 0 {
		t.Errorf("failed Sets mutated the list: %d", cs.Len())
	}
	// All numeric types accepted.
	for _, v := range []any{1, int32(1), int64(1), uint(1), float32(1), 1.0, Float(1), "s"} {
		if err := cs.Set(Idle, ">=", v); err != nil {
			t.Errorf("Set(%T) = %v", v, err)
		}
	}
}

func TestMustSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSet with bad param did not panic")
		}
	}()
	NewConstraints().MustSet("nope", "==", 1)
}

func TestNilConstraints(t *testing.T) {
	var cs *Constraints
	if !cs.Eval(Snapshot{}) {
		t.Fatal("nil constraints must accept everything")
	}
	if cs.Len() != 0 || cs.Wire() != nil || cs.Clone() != nil || cs.Wire() != nil {
		t.Fatal("nil-safety broken")
	}
	if got := cs.And(NewConstraints().MustSet(Idle, ">=", 1)); got.Len() != 1 {
		t.Fatal("And on nil receiver broken")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewConstraints().MustSet(Idle, ">=", 50)
	b := a.Clone()
	b.MustSet(AvailMem, ">=", 10)
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatalf("clone not independent: a=%d b=%d", a.Len(), b.Len())
	}
}

func TestAnd(t *testing.T) {
	a := NewConstraints().MustSet(Idle, ">=", 50)
	b := NewConstraints().MustSet(AvailMem, ">=", 100)
	ab := a.And(b)
	if ab.Len() != 2 || a.Len() != 1 || b.Len() != 1 {
		t.Fatal("And must not mutate operands")
	}
	s := goodSnapshot()
	if !ab.Eval(s) {
		t.Fatal("conjunction rejected good snapshot")
	}
	s.SetFloat(AvailMem, 1)
	if ab.Eval(s) {
		t.Fatal("conjunction accepted violating snapshot")
	}
}

func TestWireRoundTrip(t *testing.T) {
	cs := paperConstraints(t)
	back := FromWire(cs.Wire())
	if back.Len() != cs.Len() {
		t.Fatalf("wire round trip lost constraints: %d vs %d", back.Len(), cs.Len())
	}
	if !back.Eval(goodSnapshot()) {
		t.Fatal("round-tripped set rejects good snapshot")
	}
	if FromWire(nil) != nil {
		t.Fatal("FromWire(nil) != nil")
	}
}

func TestConstraintString(t *testing.T) {
	cs := NewConstraints().MustSet(Idle, ">=", 50).MustSet(NodeName, "!=", "milena")
	s := cs.String()
	if !strings.Contains(s, "cpu.idle >= 50") || !strings.Contains(s, "node.name != milena") {
		t.Fatalf("String = %q", s)
	}
	if NewConstraints().String() != "(no constraints)" {
		t.Fatal("empty set rendering wrong")
	}
}

// Property: Eval(cs.And(o)) == Eval(cs) && Eval(o).
func TestAndIsConjunctionProperty(t *testing.T) {
	f := func(idleMin, memMin, idle, mem float64) bool {
		a := NewConstraints().MustSet(Idle, ">=", idleMin)
		b := NewConstraints().MustSet(AvailMem, ">=", memMin)
		s := Snapshot{Idle: Float(idle), AvailMem: Float(mem)}
		return a.And(b).Eval(s) == (a.Eval(s) && b.Eval(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkConstraintEval(b *testing.B) {
	cs := NewConstraints().
		MustSet(NodeName, "!=", "milena").
		MustSet(CPUSysLoad, "<=", 10).
		MustSet(Idle, ">=", 50).
		MustSet(AvailMem, ">=", 50).
		MustSet(SwapRatio, "<=", 0.3)
	s := goodSnapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Eval(s)
	}
}
