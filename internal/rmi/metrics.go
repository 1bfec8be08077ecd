package rmi

import (
	"sync"

	"jsymphony/internal/metrics"
)

// stationMetrics caches the station's histograms so the hot call path
// never rebuilds labeled names.  Per-peer link instruments are resolved
// once per peer and memoized.
type stationMetrics struct {
	reg *metrics.Registry

	callLatency *metrics.Histogram // js_rmi_call_latency_us{node}

	links sync.Map // peer string -> *linkMetrics
	node  string
}

// linkMetrics are one directed node→peer link's instruments.
type linkMetrics struct {
	latency *metrics.Histogram // js_rmi_link_latency_us{node,peer}
	bytes   *metrics.Histogram // js_rmi_link_bytes{node,peer}
}

// link returns (memoizing) the instruments for the node→peer link.
// After the first call for a peer this is one lock-free map read; the
// peer set of a station is small and stable, the per-message rate is
// not.
func (m *stationMetrics) link(peer string) *linkMetrics {
	if l, ok := m.links.Load(peer); ok {
		return l.(*linkMetrics)
	}
	l := &linkMetrics{
		latency: m.reg.Histogram(metrics.Label("js_rmi_link_latency_us", "node", m.node, "peer", peer), nil),
		bytes:   m.reg.Histogram(metrics.Label("js_rmi_link_bytes", "node", m.node, "peer", peer), metrics.SizeBuckets),
	}
	actual, _ := m.links.LoadOrStore(peer, l)
	return actual.(*linkMetrics)
}

// SetMetrics points the station at a registry: the exported wire
// counters become the registry's instruments and the latency and link
// histograms start recording.  Call before Start; a nil registry (the
// default) records nothing outside the station.
func (st *Station) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	node := st.Node()
	st.calls = reg.Counter(metrics.Label("js_rmi_calls_total", "node", node))
	st.retries = reg.Counter(metrics.Label("js_rmi_retries_total", "node", node))
	st.bytesOut = reg.Counter(metrics.Label("js_rmi_bytes_out_total", "node", node))
	st.metrics = &stationMetrics{
		reg:         reg,
		node:        node,
		callLatency: reg.Histogram(metrics.Label("js_rmi_call_latency_us", "node", node), nil),
	}
}

// SetTimeoutHook installs a callback invoked whenever a synchronous call
// times out, with the peer, service, and method that timed out.  The
// core layer uses it to emit CallTimeout trace events without this
// package depending on the tracer.
func (st *Station) SetTimeoutHook(hook func(to, service, method string)) {
	st.timeoutHook = hook
}
