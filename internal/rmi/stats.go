package rmi

// StatsSnapshot is a consistent-enough copy of a station's counters.
type StatsSnapshot struct {
	CallsSent  int64 // requests sent expecting a response
	OneWaySent int64 // one-way messages sent
	Served     int64 // inbound requests dispatched to handlers
	Timeouts   int64 // call attempts abandoned on timeout
	Sheds      int64 // calls answered with an overload rejection
	Retries    int64 // request re-sends under a retry policy
	Dups       int64 // duplicate idempotent requests suppressed
	Stale      int64 // late responses dropped
	BytesOut   int64 // estimated bytes transmitted
	BytesIn    int64 // estimated bytes received
}

// Add merges o into s (for aggregating across stations).
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	s.CallsSent += o.CallsSent
	s.OneWaySent += o.OneWaySent
	s.Served += o.Served
	s.Timeouts += o.Timeouts
	s.Sheds += o.Sheds
	s.Retries += o.Retries
	s.Dups += o.Dups
	s.Stale += o.Stale
	s.BytesOut += o.BytesOut
	s.BytesIn += o.BytesIn
	return s
}
