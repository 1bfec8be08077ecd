//go:build race

package vclock

// raceEnabled reports whether this binary was built with the race
// detector; its runtime allocates on its own account, so
// allocation-budget assertions are not meaningful under it.
const raceEnabled = true
