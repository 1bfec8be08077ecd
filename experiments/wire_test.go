package experiments

import "testing"

// The claims must hold at other seeds too — the benefit is not a seed
// artifact.
func TestWireClaimsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full twin-run sweep in -short mode")
	}
	if raceEnabled {
		// The race runtime randomly bypasses sync.Pool puts, so
		// AllocsPerRun counts are nondeterministic under it.
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	for _, seed := range []int64{2, 3} {
		if lines, ok := Wire(WireConfig{Seed: seed}).Claims(); !ok {
			t.Errorf("seed %d: wire claims failed:\n%s", seed, lines)
		}
	}
}

// TestWireSpeedClaim gates the wall-clock half of the headline claim:
// encode+decode on the wire path is at least 2x faster than gob for
// every representative payload.  The measured margin is an order of
// magnitude, so the 2x floor holds on a loaded CI machine.
func TestWireSpeedClaim(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock codec speed is not meaningful under the race detector")
	}
	for _, s := range MeasureWireSpeed() {
		if s.Speedup < 2 {
			t.Errorf("%s: wire encode+decode only %.2fx faster than gob (%.0fns vs %.0fns), want >= 2x",
				s.Payload, s.Speedup, s.WireNs, s.GobNs)
		}
	}
}
