package sched

import "time"

// StopWatch measures elapsed scheduler time.  On a virtual scheduler the
// reading is a deterministic function of the simulation, which is what
// lets the metrics layer promise byte-identical snapshots across
// identically-seeded runs.
type StopWatch struct {
	s     Sched
	start time.Duration
}

// StartWatch begins timing against s's clock.
func StartWatch(s Sched) StopWatch {
	return StopWatch{s: s, start: s.Now()}
}

// Elapsed returns scheduler time since StartWatch.
func (w StopWatch) Elapsed() time.Duration { return w.s.Now() - w.start }
