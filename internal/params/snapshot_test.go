package params

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSnapshotBasics(t *testing.T) {
	s := make(Snapshot)
	s.SetFloat(Idle, 80)
	s.SetText(NodeName, "rachel")
	if v, ok := s.Get(Idle); !ok || v.Num != 80 {
		t.Fatalf("Get(Idle) = %v, %v", v, ok)
	}
	if v, ok := s.Get(NodeName); !ok || v.Str != "rachel" {
		t.Fatalf("Get(NodeName) = %v, %v", v, ok)
	}
	if _, ok := s.Get(CPUSysLoad); ok {
		t.Fatal("Get of absent parameter reported present")
	}
}

func TestSnapshotClone(t *testing.T) {
	s := make(Snapshot)
	s.SetFloat(Idle, 80)
	c := s.Clone()
	c.SetFloat(Idle, 10)
	if v, _ := s.Get(Idle); v.Num != 80 {
		t.Fatal("Clone is not independent of original")
	}
}

func TestSnapshotIDsSorted(t *testing.T) {
	s := Snapshot{Idle: Float(1), AvailMem: Float(2), NodeName: Text("n")}
	ids := s.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{Idle: Float(50), NodeName: Text("milena")}
	out := s.String()
	if !strings.Contains(out, "cpu.idle = 50") || !strings.Contains(out, "node.name = milena") {
		t.Fatalf("String output missing entries:\n%s", out)
	}
}

func TestAverageNumeric(t *testing.T) {
	a := Snapshot{Idle: Float(100), AvailMem: Float(10)}
	b := Snapshot{Idle: Float(50), AvailMem: Float(30)}
	c := Snapshot{Idle: Float(0)}
	avg := Average(a, b, c)
	if got := avg[Idle].Num; got != 50 {
		t.Errorf("avg idle = %v, want 50", got)
	}
	// AvailMem present in only two snapshots: averaged over those two.
	if got := avg[AvailMem].Num; got != 20 {
		t.Errorf("avg mem = %v, want 20", got)
	}
}

func TestAverageStrings(t *testing.T) {
	a := Snapshot{OSName: Text("Solaris"), NodeName: Text("a")}
	b := Snapshot{OSName: Text("Solaris"), NodeName: Text("b")}
	avg := Average(a, b)
	if avg[OSName].Str != "Solaris" {
		t.Errorf("uniform string parameter should survive averaging, got %v", avg[OSName])
	}
	if _, ok := avg[NodeName]; ok {
		t.Error("non-uniform string parameter must be dropped from aggregate")
	}
}

func TestAverageEmpty(t *testing.T) {
	if got := Average(); len(got) != 0 {
		t.Fatalf("Average() = %v, want empty", got)
	}
	if got := Average(Snapshot{}); len(got) != 0 {
		t.Fatalf("Average(empty) = %v, want empty", got)
	}
}

// Property: averaging a snapshot with itself N times is the identity for
// numeric parameters.
func TestAverageIdempotent(t *testing.T) {
	f := func(idle, mem float64, n uint8) bool {
		if math.IsNaN(idle) || math.IsNaN(mem) {
			return true
		}
		s := Snapshot{Idle: Float(idle), AvailMem: Float(mem)}
		snaps := make([]Snapshot, int(n%8)+1)
		for i := range snaps {
			snaps[i] = s
		}
		avg := Average(snaps...)
		return closeEnough(avg[Idle].Num, idle) && closeEnough(avg[AvailMem].Num, mem)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: average of numeric values lies within [min, max].
func TestAverageBounded(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		snaps := make([]Snapshot, len(vals))
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// Clamp to the magnitude of real system parameters so the
			// accumulated sum cannot overflow or catastrophically cancel.
			v = math.Mod(v, 1e9)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			snaps[i] = Snapshot{Idle: Float(v)}
		}
		got := Average(snaps...)[Idle].Num
		const eps = 1e-9
		span := math.Max(1, math.Max(math.Abs(lo), math.Abs(hi)))
		return got >= lo-eps*span && got <= hi+eps*span
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func BenchmarkAverage13Nodes(b *testing.B) {
	// The paper's cluster size: averaging 13 full node snapshots.
	snaps := make([]Snapshot, 13)
	for i := range snaps {
		s := make(Snapshot, Count())
		for _, in := range catalog {
			if in.Kind == Number {
				s.SetFloat(in.ID, float64(i))
			} else {
				s.SetText(in.ID, "x")
			}
		}
		snaps[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Average(snaps...)
	}
}
