package codebase

import (
	"testing"

	"jsymphony/internal/budget"
)

// TestInvokeAllocBudget pins what one invocation costs once its method
// has been resolved.  Each row names the BENCHMARK.json ledger row it
// mirrors; the ceiling is this test's count, and a change that lowers a
// count lowers its ceiling.
func TestInvokeAllocBudget(t *testing.T) {
	if budget.RaceEnabled {
		t.Skip("the race runtime allocates on its own account, so allocation budgets do not hold under it")
	}
	w := &widget{}
	for _, row := range []struct {
		name, ledger string
		ceiling      float64
		op           func()
	}{
		{"Invoke with no arguments", "codebase.invoke_allocs", 3, func() {
			if _, err := Invoke(w, "Count", nil); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, row.op); got > row.ceiling {
			t.Errorf("%s (%s): %.1f allocs, ceiling %.1f", row.name, row.ledger, got, row.ceiling)
		} else {
			t.Logf("%s (%s): %.1f allocs, ceiling %.1f", row.name, row.ledger, got, row.ceiling)
		}
	}
}
