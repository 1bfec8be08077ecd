package kv

import (
	"testing"

	"jsymphony"
)

func TestFleetPlacementHintsParse(t *testing.T) {
	h, err := PlacementHints()
	if err != nil {
		t.Fatalf("embedded hints: %v", err)
	}
	if h.Workload != "jsymphony/workloads/kv" {
		t.Fatalf("workload = %q", h.Workload)
	}
	// The cut must co-locate the store with at least one reader —
	// that is the whole point of the hints for this workload.
	gid, ok := h.Lookup(SiteStore, 0)
	if !ok {
		t.Fatal("store not in any group")
	}
	var g jsymphony.PlacementGroup
	for _, g = range h.Groups {
		if g.ID == gid {
			break
		}
	}
	readers := 0
	for _, m := range g.Members {
		if m.Site == SiteReaders {
			readers++
		}
	}
	if readers == 0 {
		t.Fatalf("store group %+v holds no readers", g)
	}
}

// Each reader i performs n Gets of key-i (value i+1), so the checksum
// is exactly n * sum(i+1) regardless of placement.
func TestRunFleetChecksum(t *testing.T) {
	for _, hinted := range []bool{false, true} {
		env := jsymphony.NewSimEnv(jsymphony.UniformCluster(jsymphony.Ultra10_300, 4),
			jsymphony.IdleProfile, 1, jsymphony.EnvOptions{})
		env.RunMain("", func(js *jsymphony.JS) {
			if hinted {
				h, err := PlacementHints()
				if err != nil {
					t.Fatal(err)
				}
				js.InstallPlacementHints(h)
			}
			cfg := FleetConfig{Nodes: 4, Readers: 4, ReadsPerReader: 8}
			st, err := RunFleet(js, cfg)
			if err != nil {
				t.Fatalf("hinted=%v: %v", hinted, err)
			}
			if st.Reads != cfg.Readers*cfg.ReadsPerReader {
				t.Fatalf("hinted=%v: reads = %d, want %d", hinted, st.Reads, cfg.Readers*cfg.ReadsPerReader)
			}
			wantSum := 0
			for i := 0; i < cfg.Readers; i++ {
				wantSum += cfg.ReadsPerReader * (i + 1)
			}
			if st.Sum != wantSum {
				t.Fatalf("hinted=%v: sum = %d, want %d", hinted, st.Sum, wantSum)
			}
		})
	}
}

func TestRunFleetValidation(t *testing.T) {
	if _, err := RunFleet(nil, FleetConfig{Nodes: 0}); err == nil {
		t.Fatal("Nodes=0 accepted")
	}
}
