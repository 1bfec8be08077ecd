//go:build race

package metrics

// raceEnabled reports whether this binary was built with the race
// detector, whose runtime allocates on its own account.
const raceEnabled = true
