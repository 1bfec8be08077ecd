package nas

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"jsymphony/internal/params"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
)

func TestHistoryRing(t *testing.T) {
	h := NewHistory(3)
	if h.Len() != 0 {
		t.Fatal("new history not empty")
	}
	for i := 1; i <= 5; i++ {
		h.Add(time.Duration(i)*time.Second, params.Snapshot{params.Idle: params.Float(float64(i * 10))})
	}
	// Capacity 3: entries 3, 4, 5 survive, oldest first.
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	at, vals := h.Series(params.Idle)
	if len(vals) != 3 || vals[0] != 30 || vals[2] != 50 {
		t.Fatalf("series = %v", vals)
	}
	if at[0] != 3*time.Second {
		t.Fatalf("timestamps = %v", at)
	}
	min, max, mean, n := h.Stats(params.Idle)
	if n != 3 || min != 30 || max != 50 || mean != 40 {
		t.Fatalf("stats = %v %v %v %v", min, max, mean, n)
	}
}

func TestHistoryMissingParam(t *testing.T) {
	h := NewHistory(4)
	h.Add(time.Second, params.Snapshot{params.NodeName: params.Text("x")})
	if _, vals := h.Series(params.Idle); len(vals) != 0 {
		t.Fatal("series found ghost values")
	}
	if _, _, _, n := h.Stats(params.Idle); n != 0 {
		t.Fatal("stats counted ghosts")
	}
	if out := h.Format(params.Idle); !strings.Contains(out, "no history") {
		t.Fatalf("Format = %q", out)
	}
}

func TestHistoryCapClamp(t *testing.T) {
	h := NewHistory(0)
	h.Add(0, params.Snapshot{params.Idle: params.Float(1)})
	h.Add(0, params.Snapshot{params.Idle: params.Float(2)})
	if h.Len() != 1 {
		t.Fatalf("cap-0 history Len = %d, want 1 (clamped)", h.Len())
	}
}

// Property: the history always returns entries in insertion order and
// never exceeds its capacity.
func TestHistoryOrderProperty(t *testing.T) {
	f := func(values []float64, cap8 uint8) bool {
		cap := int(cap8%16) + 1
		h := NewHistory(cap)
		for i, v := range values {
			h.Add(time.Duration(i), params.Snapshot{params.Idle: params.Float(v)})
		}
		entries := h.Entries()
		if len(entries) > cap {
			return false
		}
		want := len(values)
		if want > cap {
			want = cap
		}
		if len(entries) != want {
			return false
		}
		for i := 1; i < len(entries); i++ {
			if entries[i].At <= entries[i-1].At {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAgentAccumulatesHistory(t *testing.T) {
	w := bootSim(t, simnet.UniformCluster(simnet.Ultra10_300, 2), simnet.Idle)
	w.run(func(p sched.Proc) {
		p.Sleep(1200 * time.Millisecond) // several monitor periods
		ag := w.agents[w.names[1]]
		ag.mu.Lock()
		at, vals := ag.history.Series(params.Idle)
		ag.mu.Unlock()
		if len(vals) < 3 {
			t.Fatalf("history has %d samples after 1.2s at 200ms period", len(vals))
		}
		for i := 1; i < len(at); i++ {
			if at[i] <= at[i-1] {
				t.Fatal("history timestamps not increasing")
			}
		}
		out := ag.HistoryFormat(params.Idle)
		if !strings.Contains(out, "samples=") {
			t.Fatalf("HistoryFormat = %q", out)
		}
	})
}
