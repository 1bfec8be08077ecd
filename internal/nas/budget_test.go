package nas

import (
	"testing"
	"time"

	"jsymphony/internal/budget"
	"jsymphony/internal/rmi"
	"jsymphony/internal/simnet"
	"jsymphony/internal/vclock"
)

// TestHeartbeatAllocBudget: the allocation budget of the NAS heartbeat
// (ROADMAP item 11's ratchet rule: a change that lowers a count lowers
// its ceiling).  A sample allocates its snapshot; a report's encode
// the returned body; its decode the target and the node name, because
// the snapshot stays as checked bytes until a directory query reads it
// (dirEntry.view).  The body's size is pinned exactly.
func TestHeartbeatAllocBudget(t *testing.T) {
	if budget.RaceEnabled {
		t.Skip("the race runtime allocates on its own account, so allocation budgets do not hold under it")
	}
	fab := simnet.New(vclock.New(), simnet.PaperCluster(), simnet.Day, 1)
	sampler := SimSampler{M: fab.Machine(0)}
	// The report arrives as an any, as the monitor loop's does, so the
	// encode row holds no boxing at this call.
	var report any = reportMsg{Node: "milena", Snap: reportSnap{snap: sampler.Sample(3 * time.Second)}}
	body := rmi.MustMarshal(report)
	if len(body) != 1115 {
		t.Errorf("the report encodes to %d bytes, want 1115", len(body))
	}
	for _, row := range []struct {
		name    string
		ceiling float64
		op      func()
	}{
		{"SimSampler.Sample", 1, func() { sampler.Sample(3 * time.Second) }},
		{"49-parameter report encode", 1, func() { rmi.MustMarshal(report) }},
		{"49-parameter report decode", 2, func() {
			if err := rmi.Unmarshal(body, new(reportMsg)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, row.op); got > row.ceiling {
			t.Errorf("%s: %.1f allocs, ceiling %.1f", row.name, got, row.ceiling)
		} else {
			t.Logf("%s: %.1f allocs, ceiling %.1f", row.name, got, row.ceiling)
		}
	}
}
