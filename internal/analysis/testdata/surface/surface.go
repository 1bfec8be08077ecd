// Package surface is the fixture of TestSurfaceResolvesByType.  Each
// uncalled function here shares its name with something that is used,
// so only a check that resolves references by type finds it.
package surface

// Disk's Flush is called; its Size field is read.
type Disk struct{ Size int }

func (d *Disk) Flush() {}

// Tape.Flush shares Disk.Flush's name and is never called.
type Tape struct{}

func (t *Tape) Flush() {}

// Sync is never called either, but an interface declares its name,
// and a method named in an interface counts as referenced.
func (t *Tape) Sync() {}

type Syncer interface{ Sync() }

// Meter.Size shares the name of the field Disk.Size and is never called.
type Meter struct{}

func (m Meter) Size() int { return 0 }

// Reset shares the name of a composite-literal key and is never called.
func Reset() {}

type Options struct{ Reset bool }

// Loop only calls itself: a use from its own body does not count.
func Loop(n int) int {
	if n == 0 {
		return 0
	}
	return Loop(n - 1)
}

// Use is referenced by the variable below.
func Use(d *Disk) int {
	d.Flush()
	return d.Size
}

var (
	_ = Use(&Disk{})
	_ = Options{Reset: true}
)
