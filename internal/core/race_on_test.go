//go:build race

package core

// raceEnabled reports whether this binary was built with the race
// detector; it randomly bypasses sync.Pool puts, so allocation-budget
// assertions are not meaningful under it.
const raceEnabled = true
