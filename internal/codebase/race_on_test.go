//go:build race

package codebase

// raceEnabled reports whether this binary was built with the race
// detector, under which allocation counts are not meaningful.
const raceEnabled = true
