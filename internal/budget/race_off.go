//go:build !race

// Package budget holds what the allocation-budget tests of every package
// share.  Only test files import it.
package budget

// RaceEnabled reports whether this binary was built with the race
// detector.  The race runtime allocates on its own account and randomly
// bypasses sync.Pool puts, so allocation budgets do not hold under it.
const RaceEnabled = false
