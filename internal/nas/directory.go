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
	reg     *metrics.Registry   // nil unless SetMetrics was called
}

// SetMetrics points the directory at a metrics registry.  Each agent
// report feeds the cluster-wide js_nas_report_gap_us histogram with the
// gap since the node's previous report — the age its parameters had
// just before being replaced.
func (d *Directory) SetMetrics(reg *metrics.Registry) {
	d.mu.Lock()
	d.reg = reg
	d.mu.Unlock()
}

type dirEntry struct {
	snap     params.Snapshot
	seen     time.Duration // scheduler time of last report
	reserved int           // allocations referencing this node
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

// listResp carries the directory contents for shell display.
type listResp struct {
	Nodes []string
	Snaps []params.Snapshot
}

// NewDirectory registers the DirService on st.
func NewDirectory(st *rmi.Station, cfg Config) *Directory {
	d := &Directory{st: st, cfg: cfg.withDefaults(),
		entries: make(map[string]*dirEntry), rsets: make(map[string]RSetInfo)}
	st.Register(DirService, d.handle)
	return d
}

// Node returns the directory's host node.
func (d *Directory) Node() string { return d.st.Node() }

// handle serves DirService methods.
func (d *Directory) handle(p sched.Proc, from, method string, body []byte) ([]byte, error) {
	switch method {
	case "report":
		var m reportMsg
		if err := rmi.Unmarshal(body, &m); err != nil {
			return nil, err
		}
		d.report(m.Node, m.Snap, p.Sched().Now())
		return nil, nil
	case "select":
		var req selectReq
		if err := rmi.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		nodes, err := d.selectNodes(req, p.Sched().Now())
		if err != nil {
			return nil, err
		}
		return rmi.MustMarshal(selectResp{Nodes: nodes}), nil
	case "release":
		var nodes []string
		if err := rmi.Unmarshal(body, &nodes); err != nil {
			return nil, err
		}
		d.Release(nodes...)
		return nil, nil
	case "remove":
		var node string
		if err := rmi.Unmarshal(body, &node); err != nil {
			return nil, err
		}
		d.Remove(node)
		return nil, nil
	case "list":
		nodes, snaps := d.listAll()
		return rmi.MustMarshal(listResp{Nodes: nodes, Snaps: snaps}), nil
	case "rsetPut":
		var info RSetInfo
		if err := rmi.Unmarshal(body, &info); err != nil {
			return nil, err
		}
		d.putRSet(info)
		return nil, nil
	case "rsetDel":
		var key string
		if err := rmi.Unmarshal(body, &key); err != nil {
			return nil, err
		}
		d.delRSet(key)
		return nil, nil
	}
	return nil, fmt.Errorf("nas: directory has no method %q", method)
}

// report ingests one agent report.
func (d *Directory) report(node string, snap params.Snapshot, now time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.entries[node]
	if e == nil {
		e = &dirEntry{}
		d.entries[node] = e
	} else if d.reg != nil {
		d.reg.Histogram("js_nas_report_gap_us", nil).ObserveDuration(now - e.seen)
	}
	e.snap = snap
	e.seen = now
}

// Remove deletes a node from the installation (JS-Shell "remove node",
// or failure cleanup).
func (d *Directory) Remove(node string) {
	d.mu.Lock()
	delete(d.entries, node)
	d.mu.Unlock()
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
		return nil, false
	}
	return e.snap.Clone(), true
}

func (d *Directory) listAll() ([]string, []params.Snapshot) {
	d.mu.Lock()
	defer d.mu.Unlock()
	nodes := make([]string, 0, len(d.entries))
	for n := range d.entries {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	snaps := make([]params.Snapshot, len(nodes))
	for i, n := range nodes {
		snaps[i] = d.entries[n].snap.Clone()
	}
	return nodes, snaps
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
		if !constr.Eval(e.snap) {
			continue
		}
		c := cand{name: name}
		idle := 100.0
		if v, ok := e.snap.Get(params.Idle); ok {
			idle = v.Num
		}
		if v, ok := e.snap.Get(params.PeakMFlops); ok {
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
	body, err := st.Call(p, dirNode, DirService, "select", rmi.MustMarshal(req), 5*time.Second)
	if err != nil {
		return nil, err
	}
	var resp selectResp
	if err := rmi.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Nodes, nil
}

// ReleaseNodes is the client-side release call.
func ReleaseNodes(p sched.Proc, st *rmi.Station, dirNode string, nodes ...string) error {
	_, err := st.Call(p, dirNode, DirService, "release", rmi.MustMarshal(nodes), 5*time.Second)
	return err
}
