package nas

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"jsymphony/internal/metrics"
	"jsymphony/internal/params"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
)

// DirService is the RMI service name of the installation directory.
const DirService = "nas.dir"

// The directory is the JS-Shell's view of the installation: every agent
// reports its snapshot periodically; the directory tracks freshness,
// declares silent nodes failed, and answers the allocation queries behind
// "new Node()", "new Cluster(5, constr)" and friends — the paper's "JRS
// will allocate a node with low system load and reasonable resources".
type Directory struct {
	st  *rmi.Station
	cfg Config

	mu      sync.Mutex
	entries map[string]*dirEntry
	rsets   map[string]RSetInfo // replica sets by "<app>/<id>" (see rset.go)
	gap     *metrics.Histogram  // js_nas_report_gap_us
}

type dirEntry struct {
	snap     reportSnap    // the latest report's snapshot, decoded by view
	seen     time.Duration // scheduler time of last report
	reserved int           // allocations referencing this node
}

// view returns the entry's latest snapshot.  A report arrives as checked
// bytes (reportSnap); the first read after it decodes them, once, and
// a report that no query reads is never decoded.  Caller holds d.mu.
func (e *dirEntry) view() params.Snapshot {
	if e.snap.raw != nil {
		e.snap = reportSnap{snap: e.snap.decode()}
	}
	return e.snap.snap
}

// selectReq is the wire form of an allocation query.
type selectReq struct {
	N          int // number of nodes wanted
	Constr     params.Wire
	Exclude    []string // node names to skip
	Name       string   // exact host name wanted ("" = any)
	Among      []string // restrict candidates to these nodes (nil = all)
	SpreadOver bool     // prefer nodes with fewer reservations
	NoReserve  bool     // placement query: do not count as an allocation
}

// selectResp carries the chosen node names.
type selectResp struct {
	Nodes []string
}

// NewDirectory registers the DirService on st.  Each agent report feeds
// reg's cluster-wide js_nas_report_gap_us histogram with the gap since
// the node's previous report — the age its parameters had just before
// being replaced.
func NewDirectory(st *rmi.Station, cfg Config, reg *metrics.Registry) *Directory {
	d := &Directory{st: st, cfg: cfg.withDefaults(),
		entries: make(map[string]*dirEntry), rsets: make(map[string]RSetInfo)}
	d.gap = reg.HistogramHandle("js_nas_report_gap_us", nil)
	st.Register(DirService, dirMethods.Serve(d))
	return d
}

// dirMethods is the DirService table (DESIGN.md §15).
var dirMethods = rmi.Methods[*Directory]{
	"report": rmi.Void((*Directory).report),
	"select": rmi.Typed(func(d *Directory, p sched.Proc, req selectReq) (selectResp, error) {
		nodes, err := d.selectNodes(req, p.Sched().Now())
		return selectResp{Nodes: nodes}, err
	}),
	"release": rmi.Void(func(d *Directory, _ sched.Proc, nodes []string) error {
		d.Release(nodes...)
		return nil
	}),
	"rsetPut": rmi.Void((*Directory).putRSet),
	"rsetDel": rmi.Void((*Directory).delRSet),
}

// Node returns the directory's host node.
func (d *Directory) Node() string { return d.st.Node() }

// report ingests one agent report.
func (d *Directory) report(p sched.Proc, m reportMsg) error {
	now := p.Sched().Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.entries[m.Node]
	if e == nil {
		e = &dirEntry{}
		d.entries[m.Node] = e
	} else {
		d.gap.ObserveDuration(now - e.seen)
	}
	e.snap = m.Snap
	e.seen = now
	return nil
}

// Release decrements reservation counts for nodes freed by applications.
func (d *Directory) Release(nodes ...string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, n := range nodes {
		if e := d.entries[n]; e != nil && e.reserved > 0 {
			e.reserved--
		}
	}
}

// fresh reports whether the entry has reported recently enough.
func (d *Directory) fresh(e *dirEntry, now time.Duration) bool {
	return now-e.seen <= d.cfg.FailTimeout
}

// Nodes returns the names of all live (fresh) nodes, sorted.
func (d *Directory) Nodes(now time.Duration) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for n, e := range d.entries {
		if d.fresh(e, now) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Alive reports whether node has reported recently enough at now: the
// freshness rule of Nodes, for one node.
func (d *Directory) Alive(node string, now time.Duration) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[node]
	return ok && d.fresh(e, now)
}

// DeadNodes returns known nodes that have gone silent.
func (d *Directory) DeadNodes(now time.Duration) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for n, e := range d.entries {
		if !d.fresh(e, now) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns the latest reported snapshot for a node.
func (d *Directory) Snapshot(node string) (params.Snapshot, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[node]
	if !ok {
		return params.Snapshot{}, false
	}
	return e.view().Clone(), true
}

// selectNodes implements the allocation policy.  Candidates must be
// fresh, satisfy the constraints, and not be excluded; among candidates,
// nodes with the lowest utilization (highest idle) win, with reservation
// count and peak performance as tie-breakers — "a node with low system
// load and reasonable resources available" (§4.2).
func (d *Directory) selectNodes(req selectReq, now time.Duration) ([]string, error) {
	constr := params.FromWire(req.Constr)
	excluded := make(map[string]bool, len(req.Exclude))
	for _, n := range req.Exclude {
		excluded[n] = true
	}
	var among map[string]bool
	if req.Among != nil {
		among = make(map[string]bool, len(req.Among))
		for _, n := range req.Among {
			among[n] = true
		}
	}

	d.mu.Lock()
	defer d.mu.Unlock()

	type cand struct {
		name   string
		speed  float64 // expected delivered MFlop/s = peak × idle fraction
		spread int
	}
	var cands []cand
	for name, e := range d.entries {
		if excluded[name] || !d.fresh(e, now) {
			continue
		}
		if among != nil && !among[name] {
			continue
		}
		if req.Name != "" && name != req.Name {
			continue
		}
		snap := e.view()
		if !constr.Eval(snap) {
			continue
		}
		c := cand{name: name}
		idle := 100.0
		if v, ok := snap.Get(params.Idle); ok {
			idle = v.Num
		}
		if v, ok := snap.Get(params.PeakMFlops); ok {
			c.speed = v.Num * idle / 100
		} else {
			c.speed = idle
		}
		if req.SpreadOver {
			c.spread = e.reserved
		}
		cands = append(cands, c)
	}
	if len(cands) < req.N {
		return nil, fmt.Errorf("nas: only %d of %d requested nodes satisfy %s", len(cands), req.N, constr)
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.spread != b.spread {
			return a.spread < b.spread
		}
		if a.speed != b.speed {
			return a.speed > b.speed // best expected performance first
		}
		return a.name < b.name
	})
	out := make([]string, req.N)
	for i := 0; i < req.N; i++ {
		out[i] = cands[i].name
		if !req.NoReserve {
			d.entries[cands[i].name].reserved++
		}
	}
	return out, nil
}

// SelectOpts parameterizes a node-selection query.
type SelectOpts struct {
	N       int                 // number of nodes wanted (default 1)
	Name    string              // exact host name ("" = any)
	Constr  *params.Constraints // must hold on every chosen node
	Exclude []string            // nodes that must not be chosen
	Among   []string            // restrict candidates (nil = whole pool)
	Spread  bool                // prefer less-reserved nodes
	Reserve bool                // count the result as an allocation
}

// SelectNodes is the client-side allocation/placement query, usable from
// any node's station.
func SelectNodes(p sched.Proc, st *rmi.Station, dirNode string, opts SelectOpts) ([]string, error) {
	if opts.N <= 0 {
		opts.N = 1
	}
	req := selectReq{
		N:          opts.N,
		Constr:     opts.Constr.Wire(),
		Exclude:    opts.Exclude,
		Name:       opts.Name,
		Among:      opts.Among,
		SpreadOver: opts.Spread,
		NoReserve:  !opts.Reserve,
	}
	resp, err := rmi.Ask[selectResp](p, st, dirNode, DirService, "select", req, 5*time.Second)
	return resp.Nodes, err
}

// ReleaseNodes is the client-side release call.
func ReleaseNodes(p sched.Proc, st *rmi.Station, dirNode string, nodes ...string) error {
	_, err := st.Call(p, dirNode, DirService, "release", rmi.MustMarshal(nodes), 5*time.Second)
	return err
}
