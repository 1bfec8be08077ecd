package experiments

import "testing"

// TestServeClaims runs the default experiment and requires every
// headline claim to hold: the admission-controlled run keeps the top
// class at its declared objective at >= 2x-capacity offered load while
// the unshed baseline's p99 collapses, sheds are typed and never
// counted as timeouts, and critical-path attribution survives
// shedding.
func TestServeClaims(t *testing.T) {
	res := Serve(defaultServeConfig(1))
	lines, ok := res.Claims()
	for _, l := range lines {
		t.Log(l)
	}
	if !ok {
		t.Fatal("serve claims failed")
	}
}
