package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"jsymphony"
	"jsymphony/internal/loadgen"
	"jsymphony/workloads/kv"
)

// The serve experiment is the load-shedding showcase (DESIGN.md §12):
// one seeded open-loop arrival stream — heavy-tailed interarrivals,
// Zipf key popularity, millions of simulated clients in three declared
// classes riding a night→day demand ramp — is replayed against the
// same replicated 3-shard installation twice:
//
//   - baseline: unbounded invoke queues, no admission control.  Open
//     loop means arrivals keep coming at the offered rate regardless of
//     how far behind the servers fall, so past saturation the backlog
//     and therefore every class's latency grow without bound.
//   - shed: bounded invoke queues (typed ErrOverload on a full
//     mailbox) plus a burn-rate admission controller at the shard
//     router that refuses the lowest classes first.
//
// Both runs declare the same per-class SLOs, so the artifact holds the
// two attainment curves side by side: the shed run keeps the top
// (gold) class at its declared objective at >= 2x-capacity offered
// load while the baseline's gold p99 collapses.  Everything is virtual
// time from one seed, so the JSON artifact is byte-deterministic.

// ServeClass declares one client tier with its latency objective.
type ServeClass struct {
	Name       string        // SLO/admission class
	Share      float64       // fraction of the client population
	Reads      float64       // fraction of the tier's requests that are reads
	Target     time.Duration // declared latency objective
	Percentile float64       // declared percentile (e.g. 99 or 95)
}

// ServeConfig parameterizes the experiment.  Fields are used as given:
// start from defaultServeConfig, the values the registry runs.
type ServeConfig struct {
	Seed   int64  // simulation + stream seed
	Nodes  int    // uniform cluster size
	Shards int    // shard count
	Keys   uint64 // Zipf key-space size

	Clients uint64  // simulated client population
	Rate    float64 // peak offered arrival rate, req/s
	Ops     int     // arrivals generated

	Ramp     time.Duration // night period before demand jumps to peak
	RampMult float64       // night demand as a fraction of peak

	QueueBound int           // per-object in-flight bound in the shed run
	Hold       time.Duration // admission re-admission dwell
	ReadFlops  float64       // modeled CPU per read
	WriteFlops float64       // modeled CPU per write

	Bucket  time.Duration // curve bucket width
	Classes []ServeClass  // priority order, most important first
}

// defaultServeConfig is the experiment as committed in BENCH_serve.json.
func defaultServeConfig(seed int64) ServeConfig {
	return ServeConfig{
		Seed:     seed,
		Nodes:    6,
		Shards:   3,
		Keys:     64,
		Clients:  3_000_000,
		Rate:     140,
		Ops:      1200,
		Ramp:     2 * time.Second,
		RampMult: 0.3,
		// Calibrated to gold's objective: with ~80ms writes fair-sharing
		// the hot shard, depth 5 caps a gold request's in-flight wait
		// near the 400ms target.  Deeper bounds stop shedding gold only
		// to miss it by latency instead.
		QueueBound: 5,
		// Longer than the controller's 250ms default: under *sustained*
		// overload every re-admission floods the mailboxes with traffic
		// the class-blind bound then sheds — some of it gold — so probing
		// for recovery once a second keeps the flap damage off the top
		// class at any seed.
		Hold:       time.Second,
		ReadFlops:  2e5,
		WriteFlops: 2e6,
		Bucket:     time.Second,
		// Shedding can only protect classes whose aggregate demand fits
		// the capacity that remains: gold+silver here offer ~30% of peak
		// (~60% of write capacity), so once bronze is shed the survivors
		// have real headroom.  A protected set sized at or above capacity
		// is unservable no matter how good the controller is.
		Classes: []ServeClass{
			{Name: "gold", Share: 0.10, Reads: 0.25, Target: 400 * time.Millisecond, Percentile: 99},
			{Name: "silver", Share: 0.20, Reads: 0.25, Target: 750 * time.Millisecond, Percentile: 95},
			{Name: "bronze", Share: 0.70, Reads: 0.25, Target: 150 * time.Millisecond, Percentile: 95},
		},
	}
}

// classNames returns the declared classes in priority order.
func (c ServeConfig) classNames() []string {
	out := make([]string, len(c.Classes))
	for i, cl := range c.Classes {
		out[i] = cl.Name
	}
	return out
}

// trace is the night→day demand curve the stream rides: RampMult of
// peak for the first Ramp, then full rate.
func (c ServeConfig) trace(t time.Duration) float64 {
	if t < c.Ramp {
		return c.RampMult
	}
	return 1.0
}

// ServePoint is one (class, time-bucket) cell of an attainment curve,
// bucketed by arrival time.
type ServePoint struct {
	BucketS    int     `json:"bucket_s"`
	Class      string  `json:"class"`
	Count      int     `json:"count"`
	OK         int     `json:"ok"`
	Sheds      int     `json:"sheds"`
	Timeouts   int     `json:"timeouts"`
	P99Ms      float64 `json:"p99_ms"`     // over completed requests (0 when none)
	Attainment float64 `json:"attainment"` // completed within target / count
}

// ServeRun is one replay of the arrival stream.
type ServeRun struct {
	Name   string              `json:"name"`
	Report jsymphony.SLOReport `json:"report"`

	Sheds            int64 `json:"sheds"`             // requests refused with ErrOverload
	RouterSheds      int64 `json:"router_sheds"`      // refused by the admission controller
	MailboxSheds     int64 `json:"mailbox_sheds"`     // refused by a full invoke queue
	Timeouts         int64 `json:"timeouts"`          // requests abandoned with ErrCallTimeout
	OverloadTimeouts int64 `json:"overload_timeouts"` // errors typed as BOTH (must be 0)
	OtherErrors      int64 `json:"other_errors"`

	Admission *jsymphony.AdmissionState `json:"admission,omitempty"`
	Breakdown SloBreakdown              `json:"breakdown"` // critical path incl. shed spans

	PeakDoneRate float64      `json:"peak_done_rate"` // completions/s during the peak window
	Curve        []ServePoint `json:"curve"`
}

// ServeResult is the whole experiment: both runs over one stream.
type ServeResult struct {
	Config   ServeConfig `json:"config"`
	Arrivals int         `json:"arrivals"`
	PeakRate float64     `json:"peak_rate"` // offered req/s at trace multiplier 1.0
	Overload float64     `json:"overload"`  // PeakRate / baseline peak completion rate
	Baseline ServeRun    `json:"baseline"`
	Shed     ServeRun    `json:"shed"`
}

// serveSample is one request's observed outcome.
type serveSample struct {
	lat    time.Duration // issue → completion, scheduler time
	doneAt time.Duration // completion, relative to the stream epoch
	err    error
}

// serveRun replays the arrival stream against a fresh installation.
// With shedding enabled it bounds every invoke queue and installs the
// admission policy; the baseline queues without bound.
func serveRun(cfg ServeConfig, arrivals []loadgen.Arrival, shed bool) ServeRun {
	name := "baseline"
	if shed {
		name = "shed"
	}
	run := ServeRun{Name: name}

	env := idleCluster(cfg.Nodes, cfg.Seed)
	for _, cl := range cfg.Classes {
		must(env.DeclareSLO(jsymphony.SLO{
			Class: cl.Name, Target: cl.Target, Percentile: cl.Percentile,
		}))
	}
	if shed {
		env.SetInvokeQueueBound(cfg.QueueBound)
	}

	samples := make([]serveSample, len(arrivals))
	var mu sync.Mutex
	done := 0

	env.RunMain("", func(js *jsymphony.JS) {
		js.Sleep(500 * time.Millisecond)
		loadStore(js, env)

		g, err := js.NewShardGroup("kv", kv.StoreClass, jsymphony.ShardSpec{
			Shards: cfg.Shards,
			Replication: &jsymphony.ReplicaPolicy{
				N: 1, Mode: jsymphony.ReplicaStrong, Reads: kv.ReadMethods(),
			},
			InitMethod: "InitRW",
			InitArgs:   []any{cfg.ReadFlops, cfg.WriteFlops},
		})
		must(err)
		if shed {
			must(g.SetAdmission(jsymphony.AdmissionPolicy{
				Classes: cfg.classNames(), Hold: cfg.Hold,
			}))
		}

		// Open-loop replay: the driver sleeps to each arrival time and
		// fires an independent client proc, never waiting on responses —
		// an overloaded installation faces the full offered rate.
		epoch := js.Now()
		for i, a := range arrivals {
			if at := epoch + a.At; at > js.Now() {
				js.Sleep(at - js.Now())
			}
			i, a := i, a
			js.Spawn(fmt.Sprintf("client-%d", i), func(js2 *jsymphony.JS) {
				g2 := g.With(js2)
				start := js2.Now()
				var err error
				if a.Op == loadgen.OpRead {
					_, err = g2.InvokeClass(a.Class, a.Key, "Get", a.Key)
				} else {
					_, err = g2.InvokeClass(a.Class, a.Key, "Put", a.Key, i)
				}
				now := js2.Now()
				mu.Lock()
				samples[i] = serveSample{lat: now - start, doneAt: now - epoch, err: err}
				done++
				mu.Unlock()
			})
		}
		// Drain: the baseline's unbounded backlog keeps completing long
		// after the last arrival.
		for {
			mu.Lock()
			d := done
			mu.Unlock()
			if d == len(arrivals) {
				break
			}
			js.Sleep(50 * time.Millisecond)
		}
		if st, ok := g.Admission(); ok {
			run.Admission = &st
		}
	})

	run.Report = env.SLOReport()

	run.Breakdown = classifiedBreakdown(env)

	// Outcome taxonomy: a shed and a timeout are disjoint by contract —
	// a request typed as both would be double-counted, so tally it
	// separately and require zero.
	for _, s := range samples {
		switch {
		case s.err == nil:
		case errors.Is(s.err, jsymphony.ErrOverload) && errors.Is(s.err, jsymphony.ErrCallTimeout):
			run.OverloadTimeouts++
		case errors.Is(s.err, jsymphony.ErrOverload):
			run.Sheds++
		case errors.Is(s.err, jsymphony.ErrCallTimeout):
			run.Timeouts++
		default:
			run.OtherErrors++
		}
	}
	if run.Admission != nil {
		run.RouterSheds = run.Admission.ShedTotal
	}
	run.MailboxSheds = run.Sheds - run.RouterSheds

	// Peak-window completion rate: with the installation saturated this
	// measures its serving capacity.
	streamEnd := arrivals[len(arrivals)-1].At
	if peak := streamEnd - cfg.Ramp; peak > 0 {
		n := 0
		for _, s := range samples {
			if s.err == nil && s.doneAt >= cfg.Ramp && s.doneAt < streamEnd {
				n++
			}
		}
		run.PeakDoneRate = float64(n) / peak.Seconds()
	}

	run.Curve = serveCurve(cfg, arrivals, samples)
	return run
}

// serveCurve buckets the per-request outcomes by arrival time.
func serveCurve(cfg ServeConfig, arrivals []loadgen.Arrival, samples []serveSample) []ServePoint {
	target := make(map[string]time.Duration, len(cfg.Classes))
	for _, cl := range cfg.Classes {
		target[cl.Name] = cl.Target
	}
	type cell struct {
		point ServePoint
		lats  []time.Duration
	}
	cells := make(map[string]*cell)
	maxBucket := 0
	for i, a := range arrivals {
		b := int(a.At / cfg.Bucket)
		if b > maxBucket {
			maxBucket = b
		}
		k := fmt.Sprintf("%06d/%s", b, a.Class)
		c := cells[k]
		if c == nil {
			c = &cell{point: ServePoint{BucketS: b, Class: a.Class}}
			cells[k] = c
		}
		c.point.Count++
		s := samples[i]
		switch {
		case s.err == nil:
			c.point.OK++
			c.lats = append(c.lats, s.lat)
			if s.lat <= target[a.Class] {
				c.point.Attainment++ // count for now; normalized below
			}
		case errors.Is(s.err, jsymphony.ErrOverload):
			c.point.Sheds++
		case errors.Is(s.err, jsymphony.ErrCallTimeout):
			c.point.Timeouts++
		}
	}
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ServePoint, 0, len(cells))
	for _, k := range keys {
		c := cells[k]
		c.point.Attainment /= float64(c.point.Count)
		if len(c.lats) > 0 {
			sort.Slice(c.lats, func(i, j int) bool { return c.lats[i] < c.lats[j] })
			idx := (len(c.lats)*99 + 99) / 100
			if idx > len(c.lats) {
				idx = len(c.lats)
			}
			c.point.P99Ms = float64(c.lats[idx-1].Microseconds()) / 1000
		}
		out = append(out, c.point)
	}
	return out
}

// Serve runs the full experiment: one generated stream, two replays.
func Serve(cfg ServeConfig) ServeResult {
	classes := make([]loadgen.Class, len(cfg.Classes))
	for i, cl := range cfg.Classes {
		classes[i] = loadgen.Class{Name: cl.Name, Share: cl.Share, Reads: cl.Reads}
	}
	arrivals, err := loadgen.Generate(loadgen.Config{
		Seed:    cfg.Seed,
		Classes: classes,
		Clients: cfg.Clients,
		Keys:    cfg.Keys,
		Rate:    cfg.Rate,
		Ops:     cfg.Ops,
		Trace:   cfg.trace,
	})
	must(err)

	res := ServeResult{
		Config:   cfg,
		Arrivals: len(arrivals),
		PeakRate: cfg.Rate,
		Baseline: serveRun(cfg, arrivals, false),
		Shed:     serveRun(cfg, arrivals, true),
	}
	if res.Baseline.PeakDoneRate > 0 {
		res.Overload = res.PeakRate / res.Baseline.PeakDoneRate
	}
	return res
}

// classOf finds one class's row in an SLO report.
func classOf(r jsymphony.SLOReport, class string) (p50, p99 time.Duration, count, errs int64, attainment float64, met, ok bool) {
	for _, c := range r.Classes {
		if c.Class == class {
			return time.Duration(c.P50Us) * time.Microsecond,
				time.Duration(c.P99Us) * time.Microsecond,
				c.Count, c.Errors, c.Attainment, c.Met, true
		}
	}
	return 0, 0, 0, 0, 0, false, false
}

// WriteText renders the experiment for the terminal.
func (res ServeResult) WriteText(w io.Writer) {
	cfg := res.Config
	fmt.Fprintf(w, "Open-loop serve: %d arrivals, %d clients in %d classes, peak %.0f req/s\n",
		res.Arrivals, cfg.Clients, len(cfg.Classes), res.PeakRate)
	fmt.Fprintf(w, "capacity %.0f req/s measured at the baseline => %.1fx overload\n\n",
		res.Baseline.PeakDoneRate, res.Overload)
	for _, run := range []ServeRun{res.Baseline, res.Shed} {
		fmt.Fprintf(w, "%s run\n", run.Name)
		for _, line := range strings.Split(strings.TrimRight(run.Report.Format(), "\n"), "\n") {
			fmt.Fprintf(w, "  %s\n", line)
		}
		fmt.Fprintf(w, "  sheds: %d (router %d, mailbox %d)  timeouts: %d  other: %d\n",
			run.Sheds, run.RouterSheds, run.MailboxSheds, run.Timeouts, run.OtherErrors)
		if run.Admission != nil {
			fmt.Fprintf(w, "  admission: level %d shedding %v (%d changes, %d refused)\n",
				run.Admission.Level, run.Admission.Shed, run.Admission.Changes, run.Admission.ShedTotal)
		}
		fmt.Fprintf(w, "  critical path: %.1f%% of classified latency attributed (dominant: %s)\n",
			100*run.Breakdown.Coverage, run.Breakdown.Dominant)
		fmt.Fprintln(w)
	}
	// The gold curve side by side: what the experiment is about.
	top := cfg.Classes[0].Name
	fmt.Fprintf(w, "%s-class curve (per %v of arrivals)\n", top, cfg.Bucket)
	fmt.Fprintf(w, "  %8s  %22s  %22s\n", "", "baseline", "shed")
	fmt.Fprintf(w, "  %8s  %6s %8s %6s  %6s %8s %6s\n",
		"bucket", "attain", "p99", "sheds", "attain", "p99", "sheds")
	type row struct{ base, shed *ServePoint }
	rows := map[int]*row{}
	order := []int{}
	for i := range res.Baseline.Curve {
		p := &res.Baseline.Curve[i]
		if p.Class != top {
			continue
		}
		rows[p.BucketS] = &row{base: p}
		order = append(order, p.BucketS)
	}
	for i := range res.Shed.Curve {
		p := &res.Shed.Curve[i]
		if p.Class != top {
			continue
		}
		if r, ok := rows[p.BucketS]; ok {
			r.shed = p
		} else {
			rows[p.BucketS] = &row{shed: p}
			order = append(order, p.BucketS)
		}
	}
	sort.Ints(order)
	fmtSide := func(p *ServePoint) string {
		if p == nil {
			return fmt.Sprintf("%6s %8s %6s", "-", "-", "-")
		}
		return fmt.Sprintf("%5.1f%% %7.0fms %6d", 100*p.Attainment, p.P99Ms, p.Sheds)
	}
	for _, b := range order {
		r := rows[b]
		fmt.Fprintf(w, "  %7ds  %s  %s\n", b, fmtSide(r.base), fmtSide(r.shed))
	}
}

// Claims evaluates the subsystem's headline claims.
func (res ServeResult) Claims() ([]string, bool) {
	var cl claims
	check := cl.check
	cfg := res.Config
	top := cfg.Classes[0]

	baseTotal, shedTotal := int64(0), int64(0)
	for _, c := range res.Baseline.Report.Classes {
		baseTotal += c.Count
	}
	for _, c := range res.Shed.Report.Classes {
		shedTotal += c.Count
	}
	check(res.Arrivals == cfg.Ops && baseTotal >= int64(cfg.Ops) && shedTotal >= int64(cfg.Ops),
		"both runs consumed the identical %d-arrival stream (baseline %d, shed %d classified)",
		cfg.Ops, baseTotal, shedTotal)

	check(res.Overload >= 2,
		"offered peak load is %.1fx the measured serving capacity (%.0f vs %.0f req/s)",
		res.Overload, res.PeakRate, res.Baseline.PeakDoneRate)

	_, shedP99, shedCount, _, shedAtt, shedMet, ok1 := classOf(res.Shed.Report, top.Name)
	check(ok1 && shedMet,
		"admission-controlled run holds %s at its declared p%.0f<=%v objective under overload (attainment %.3f over %d reqs)",
		top.Name, top.Percentile, top.Target, shedAtt, shedCount)

	_, baseP99, _, _, baseAtt, baseMet, ok2 := classOf(res.Baseline.Report, top.Name)
	ratio := 0.0
	if shedP99 > 0 {
		ratio = float64(baseP99) / float64(shedP99)
	}
	check(ok2 && !baseMet && ratio >= 3,
		"unshed baseline's %s p99 collapses to %v, %.0fx the shed run's %v (attainment %.3f)",
		top.Name, baseP99, ratio, shedP99, baseAtt)

	check(res.Shed.Sheds > 0 && res.Shed.RouterSheds > 0 && res.Baseline.Sheds == 0,
		"shedding is live and attributed (router %d + mailbox %d refusals; baseline sheds none)",
		res.Shed.RouterSheds, res.Shed.MailboxSheds)

	check(res.Shed.Timeouts == 0 && res.Shed.OverloadTimeouts == 0 && res.Baseline.OverloadTimeouts == 0,
		"every refusal is a typed shed, never double-counted as a timeout (shed-run timeouts %d)",
		res.Shed.Timeouts)

	check(res.Shed.Breakdown.Coverage >= 0.95,
		"critical path still attributes >= 95%% of classified latency with shedding active (got %.1f%%)",
		100*res.Shed.Breakdown.Coverage)
	return cl.result()
}
