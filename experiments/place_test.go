package experiments

import "testing"

// The oracle's benefit is not a seed artifact: at every seed the hinted
// run issues no more remote RMIs than the load-only baseline.
func TestPlaceAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full twin-run sweep in -short mode")
	}
	for _, seed := range []int64{2, 3} {
		res := Place(defaultPlaceConfig(seed))
		for _, pt := range res.Points {
			if !pt.Verified {
				t.Errorf("seed %d: %s run diverged from the reference", seed, pt.Workload)
			}
			if pt.Hinted.RemoteInvokes > pt.Baseline.RemoteInvokes {
				t.Errorf("seed %d: %s hinted run issued MORE remote RMIs (%d > %d)",
					seed, pt.Workload, pt.Hinted.RemoteInvokes, pt.Baseline.RemoteInvokes)
			}
		}
	}
}
