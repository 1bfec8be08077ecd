package replica

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Metric supplies the locality and liveness inputs of routing.  Any nil
// field degrades gracefully: nil Latency means all candidates are
// equidistant, nil Bandwidth breaks no ties, nil Alive means everyone is
// presumed live.  On the simulated fabric these are backed by simnet
// latency/bandwidth and the NAS directory; on the in-process and TCP
// transports they are typically all nil.
type Metric struct {
	Latency   func(from, to string) time.Duration
	Bandwidth func(from, to string) float64
	Alive     func(node string) bool
}

// Router picks read targets: nearest live candidate by latency, with
// higher bandwidth then lexicographic name breaking ties — and a
// deterministic per-key round-robin *within* the nearest equidistant
// bucket, so a uniform cluster spreads a hot object's reads over the
// whole replica set instead of hammering one lexicographic favourite.
type Router struct {
	mu sync.Mutex
	rr map[string]uint64 // per-key rotation counter
}

// NewRouter returns an empty router.
func NewRouter() *Router { return &Router{rr: make(map[string]uint64)} }

// Pick chooses a read target for key (one object = one key) among the
// members of set, its primary and its replicas, as seen from origin.
// Nodes in avoid (may be nil) and nodes the metric reports dead are
// skipped.  ok is false when nothing survives the filters.
func (r *Router) Pick(key, origin string, set Set, avoid map[string]bool, m Metric) (node string, ok bool) {
	type cand struct {
		name string
		lat  time.Duration
		bw   float64
	}
	var room [8]cand // a set of up to 8 members sorts on the stack
	live := room[:0]
	for i := -1; i < len(set.Replicas); i++ {
		c := set.Primary
		if i >= 0 {
			c = set.Replicas[i]
		}
		if c == "" || avoid[c] {
			continue
		}
		if m.Alive != nil && !m.Alive(c) {
			continue
		}
		cc := cand{name: c}
		if m.Latency != nil {
			cc.lat = m.Latency(origin, c)
		}
		if m.Bandwidth != nil {
			cc.bw = m.Bandwidth(origin, c)
		}
		live = append(live, cc)
	}
	if len(live) == 0 {
		return "", false
	}
	slices.SortFunc(live, func(a, b cand) int {
		if c := cmp.Compare(a.lat, b.lat); c != 0 {
			return c
		}
		if c := cmp.Compare(b.bw, a.bw); c != 0 {
			return c
		}
		return cmp.Compare(a.name, b.name)
	})
	// The nearest bucket: everything tied with the front-runner on
	// latency.  Rotate inside it so equidistant replicas share the load.
	n := 1
	for n < len(live) && live[n].lat == live[0].lat {
		n++
	}
	r.mu.Lock()
	turn := r.rr[key]
	r.rr[key] = turn + 1
	r.mu.Unlock()
	return live[int(turn%uint64(n))].name, true
}
