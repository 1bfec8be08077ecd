package params

import (
	"testing"
)

func TestCatalogSize(t *testing.T) {
	// The paper claims "close to 40 different system parameters".
	if Count() < 40 {
		t.Fatalf("catalog has %d parameters, want >= 40", Count())
	}
	if Count() != len(byID) {
		t.Fatalf("Count()=%d disagrees with the %d distinct ids", Count(), len(byID))
	}
}

func TestCatalogUniqueAndValid(t *testing.T) {
	seen := make(map[ID]bool)
	for _, in := range catalog {
		if seen[in.ID] {
			t.Errorf("duplicate catalog id %q", in.ID)
		}
		seen[in.ID] = true
		if !IsValid(in.ID) {
			t.Errorf("IsValid(%q) = false for cataloged id", in.ID)
		}
		o, ok := byID[in.ID]
		if !ok || catalog[o] != in {
			t.Errorf("byID[%q] = %d, %v; want the ordinal of %+v", in.ID, o, ok, in)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := byID["no.such.parameter"]; ok {
		t.Fatal("lookup of unknown id succeeded")
	}
	if IsValid("no.such.parameter") {
		t.Fatal("IsValid accepted unknown id")
	}
}

func TestStaticDynamicSplit(t *testing.T) {
	var static, dynamic int
	for _, in := range catalog {
		switch in.Class {
		case Static:
			static++
		case Dynamic:
			dynamic++
		default:
			t.Errorf("parameter %q has invalid class %d", in.ID, in.Class)
		}
	}
	if static == 0 || dynamic == 0 {
		t.Fatalf("catalog must contain both classes: static=%d dynamic=%d", static, dynamic)
	}
	// Spot checks from the paper's examples.
	if catalog[byID[NodeName]].Class != Static {
		t.Error("node.name must be static")
	}
	if catalog[byID[CPUSysLoad]].Class != Dynamic {
		t.Error("cpu.sys must be dynamic")
	}
	if catalog[byID[Idle]].Class != Dynamic {
		t.Error("cpu.idle must be dynamic")
	}
}
