//go:build !race

package codebase

const raceEnabled = false
