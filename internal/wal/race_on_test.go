//go:build race

package wal

// raceEnabled reports whether this binary was built with the race
// detector; its runtime allocates on its own account, so
// allocation-budget assertions are not meaningful under it.
const raceEnabled = true
