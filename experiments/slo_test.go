package experiments

import (
	"strings"
	"testing"
)

// TestSloClaims runs the experiment at its default configuration and
// demands every headline claim: both classes measured, >= 95% latency
// attribution, hot-key identification, and flight dumps from both the
// chaos fault and the SLO burn-rate breach.
func TestSloClaims(t *testing.T) {
	res := Slo(defaultSloConfig(1))
	lines, ok := res.Claims()
	for _, l := range lines {
		t.Log(l)
	}
	if !ok {
		var b strings.Builder
		res.WriteText(&b)
		t.Fatalf("slo claims failed:\n%s", b.String())
	}
}

// TestSloHotKeyAcrossSeeds: the planted hot key must surface as the
// globally hottest sketch entry no matter how the Zipf tail falls.
func TestSloHotKeyAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep in -short mode")
	}
	for _, seed := range []int64{1, 2, 3, 7} {
		res := Slo(defaultSloConfig(seed))
		if !res.HotKeyTop {
			t.Errorf("seed %d: planted hot key not hottest (count %d):\n%+v",
				seed, res.HotKeyCount, res.Heat)
		}
	}
}
