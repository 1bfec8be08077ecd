package rmi

import "jsymphony/internal/metrics"

// SetMetrics points the station at a registry: the exported wire
// counters become the registry's instruments and the call latency
// histogram starts recording.  Call before Start; without it the
// station records nothing outside itself.
func (st *Station) SetMetrics(reg *metrics.Registry) {
	node := st.Node()
	st.calls = reg.Counter(metrics.Label("js_rmi_calls_total", "node", node))
	st.retries = reg.Counter(metrics.Label("js_rmi_retries_total", "node", node))
	st.bytesOut = reg.Counter(metrics.Label("js_rmi_bytes_out_total", "node", node))
	st.callLatency = reg.Histogram(metrics.Label("js_rmi_call_latency_us", "node", node), nil)
}

// SetTimeoutHook installs a callback invoked whenever a synchronous call
// times out, with the peer, service, and method that timed out.  The
// core layer uses it to emit CallTimeout trace events without this
// package depending on the tracer.
func (st *Station) SetTimeoutHook(hook func(to, service, method string)) {
	st.timeoutHook = hook
}
