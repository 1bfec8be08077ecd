// Package core receives the fixture's options from another package, so
// its fields resolve through export data.
package core

// Options is filled from fields.EnvOptions.
type Options struct {
	Cost int // passed through from a never-set option
	Seed int // passed through from a set one
}

// Run reads both options.
func Run(o Options) int { return o.Cost + o.Seed }
