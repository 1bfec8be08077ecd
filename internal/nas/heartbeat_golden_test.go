package nas

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"jsymphony/internal/params"
	"jsymphony/internal/rmi"
	"jsymphony/internal/simnet"
	"jsymphony/internal/vclock"
)

// heartbeatSnaps samples the first four machines of a seeded paper
// cluster under the day profile at 3 s, with the two parameters the
// monitor loop overwrites set as it sets them.
func heartbeatSnaps() []params.Snapshot {
	fab := simnet.New(vclock.New(), simnet.PaperCluster(), simnet.Day, 1)
	snaps := make([]params.Snapshot, 4)
	for i := range snaps {
		snap := SimSampler{M: fab.Machine(i)}.Sample(3 * time.Second)
		snap.SetFloat(params.JSObjects, float64(i))
		snap.SetFloat(params.RMIRate, 12.5*float64(i))
		snaps[i] = snap
	}
	return snaps
}

// heartbeatBodies are the bodies TestHeartbeatGolden pins: one node's
// report, the same snapshot as a "get" reply and inside an argument
// vector, a cluster aggregate (its non-uniform strings dropped) and
// the empty snapshot.
func heartbeatBodies() []any {
	snaps := heartbeatSnaps()
	rmi.RegisterType(snaps[0])
	return []any{
		reportMsg{Node: "milena", Snap: reportSnap{snap: snaps[0]}},
		snaps[0],
		[]any{snaps[0], 7},
		aggMsg{Component: "cluster0", Snap: params.Average(snaps...), OK: true},
		params.Average(),
	}
}

// TestHeartbeatGolden pins the bytes of the NAS heartbeat and its
// relatives (testdata/heartbeat_golden.txt, one "<type> <hex>" line per
// body): the snapshot codec may change how it produces them, never
// what they are.
func TestHeartbeatGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/heartbeat_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, v := range heartbeatBodies() {
		fmt.Fprintf(&got, "%T %x\n", v, rmi.MustMarshal(v))
	}
	if got.String() != string(want) {
		t.Errorf("heartbeat bodies moved; got:\n%s", got.String())
	}
}
