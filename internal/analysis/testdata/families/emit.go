// Package families is the fixture of TestSurfaceChecksFamilies.  Its
// table, families.md, has a row of the wrong kind and a row of the
// wrong labels, and one family here is emitted at two lines.  Every
// row also has a family in the code and every family a row, so a check
// of those two alone reports nothing.
package families

import "fixtures/families/metrics"

// Node resolves its families once, where its node name becomes known.
type Node struct {
	calls   *metrics.Counter
	depth   *metrics.Gauge
	latency *metrics.Histogram
}

func NewNode(reg *metrics.Registry, node string) *Node {
	return &Node{
		calls:   reg.CounterHandle(metrics.Label("js_fix_calls_total", "node", node)),
		depth:   reg.Gauge("js_fix_depth"),                                                  // the row says histogram
		latency: reg.HistogramHandle(metrics.Label("js_fix_latency_us", "peer", node), nil), // the row says node
	}
}

// Publish resolves a per-key series through a variable holding its name.
func Publish(reg *metrics.Registry, key string) {
	name := metrics.Label("js_fix_key_heat", "key", key)
	reg.Gauge(name).Set(1)
}

// Retry emits its family at two lines.
func Retry(reg *metrics.Registry, again bool) {
	if again {
		reg.Counter("js_fix_retries_total").Inc()
		return
	}
	reg.Counter("js_fix_retries_total").Inc()
}
