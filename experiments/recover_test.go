package experiments

import "testing"

// TestRecoverClaims runs the default experiment and requires every
// headline claim to hold: all >=1000 persistent objects read back
// every acked write after the chaos crash, whole-cluster restart
// replays the logs while the snapshot-only baseline provably loses its
// post-checkpoint writes, the persisted shard group returns with an
// identical ring, and group commit flushes the simulated disk >= 5x
// less often than fsync-per-write.
func TestRecoverClaims(t *testing.T) {
	res := Recover(defaultRecoverConfig(1))
	lines, ok := res.Claims()
	for _, l := range lines {
		t.Log(l)
	}
	if !ok {
		t.Fatal("recover claims failed")
	}
}
