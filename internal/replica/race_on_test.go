//go:build race

package replica

// raceEnabled reports whether this binary was built with the race
// detector, whose runtime allocates on its own account, so allocation
// budgets do not hold under it.
const raceEnabled = true
