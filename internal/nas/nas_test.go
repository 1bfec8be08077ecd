package nas

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"jsymphony/internal/params"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/vclock"
)

// simWorld boots a full simulated installation: fabric, stations, one
// directory on the first node, one agent per node.
type simWorld struct {
	t        *testing.T
	clk      *vclock.Clock
	s        sched.Sched
	fab      *simnet.Fabric
	stations map[string]*rmi.Station
	agents   map[string]*Agent
	dir      *Directory
	names    []string
	cfg      Config
}

func testConfig() Config {
	return Config{
		MonitorPeriod: 200 * time.Millisecond,
		FailTimeout:   700 * time.Millisecond,
		CallTimeout:   500 * time.Millisecond,
	}
}

func bootSim(t *testing.T, specs []simnet.MachineSpec, profile simnet.LoadProfile) *simWorld {
	t.Helper()
	clk := vclock.New()
	s := sched.Virtual(clk)
	fab := simnet.New(clk, specs, profile, 1)
	net := rmi.NewFab(fab, rmi.DefaultCost)
	w := &simWorld{
		t:        t,
		clk:      clk,
		s:        s,
		fab:      fab,
		stations: make(map[string]*rmi.Station),
		agents:   make(map[string]*Agent),
		cfg:      testConfig(),
	}
	for _, m := range fab.Machines() {
		w.names = append(w.names, m.Name())
	}
	dirNode := w.names[0]
	for _, m := range fab.Machines() {
		ep, err := net.Attach(m.Name())
		if err != nil {
			t.Fatal(err)
		}
		st := rmi.NewStation(s, ep)
		w.stations[m.Name()] = st
		if m.Name() == dirNode {
			w.dir = NewDirectory(st, w.cfg)
		}
		w.agents[m.Name()] = NewAgent(st, SimSampler{M: m}, w.cfg, dirNode)
	}
	for _, st := range w.stations {
		st.Start()
	}
	for _, a := range w.agents {
		a.Start()
	}
	return w
}

// run adopts a main proc, executes fn, then shuts the world down and
// drains the simulation.
func (w *simWorld) run(fn func(p sched.Proc)) {
	p, done := sched.AdoptVirtual(w.s, "test-main")
	fn(p)
	for _, a := range w.agents {
		a.Stop()
	}
	p.Sleep(2 * w.cfg.MonitorPeriod)
	for _, st := range w.stations {
		st.Close()
	}
	done()
	w.clk.Run()
}

func TestAgentSampling(t *testing.T) {
	w := bootSim(t, simnet.UniformCluster(simnet.Ultra10_300, 2), simnet.Idle)
	w.run(func(p sched.Proc) {
		p.Sleep(time.Second)
		snap := w.agents[w.names[1]].Latest()
		if len(snap) < 40 {
			t.Errorf("snapshot has %d parameters, want >= 40", len(snap))
		}
		if v, ok := snap.Get(params.NodeName); !ok || v.Str != w.names[1] {
			t.Errorf("node.name = %v", v)
		}
		if v, ok := snap.Get(params.Idle); !ok || v.Num < 90 {
			t.Errorf("idle machine reports idle = %v", v)
		}
		if v, ok := snap.Get(params.PeakMFlops); !ok || v.Num != simnet.Ultra10_300.MFlops {
			t.Errorf("peak = %v", v)
		}
	})
}

func TestDirectoryCollectsReports(t *testing.T) {
	w := bootSim(t, simnet.UniformCluster(simnet.Ultra10_300, 4), simnet.Idle)
	w.run(func(p sched.Proc) {
		p.Sleep(time.Second)
		nodes := w.dir.Nodes(w.s.Now())
		if len(nodes) != 4 {
			t.Fatalf("directory sees %d nodes, want 4: %v", len(nodes), nodes)
		}
		snap, ok := w.dir.Snapshot(w.names[2])
		if !ok || len(snap) < 40 {
			t.Errorf("directory snapshot for %s: ok=%v len=%d", w.names[2], ok, len(snap))
		}
	})
}

func TestDirectoryDetectsSilentNode(t *testing.T) {
	w := bootSim(t, simnet.UniformCluster(simnet.Ultra10_300, 3), simnet.Idle)
	w.run(func(p sched.Proc) {
		p.Sleep(time.Second)
		victim, _ := w.fab.ByName(w.names[2])
		victim.Kill()
		p.Sleep(2 * w.cfg.FailTimeout)
		dead := w.dir.DeadNodes(w.s.Now())
		if len(dead) != 1 || dead[0] != w.names[2] {
			t.Fatalf("dead = %v, want [%s]", dead, w.names[2])
		}
		if live := w.dir.Nodes(w.s.Now()); len(live) != 2 {
			t.Fatalf("live = %v", live)
		}
	})
}

func TestSelectFastestFirst(t *testing.T) {
	w := bootSim(t, simnet.PaperCluster(), simnet.Idle)
	w.run(func(p sched.Proc) {
		p.Sleep(time.Second)
		st := w.stations[w.names[3]] // allocate from a non-directory node
		got, err := SelectNodes(p, st, w.names[0], SelectOpts{N: 3, Reserve: true})
		if err != nil {
			t.Fatalf("select: %v", err)
		}
		// On an idle cluster the three fastest machines (the Ultra
		// 10/440s and a 10/300) must win.
		for i, n := range got {
			m, _ := w.fab.ByName(n)
			if m.Spec().MFlops < simnet.Ultra10_300.MFlops {
				t.Errorf("pick %d = %s (%v MFlops), want an Ultra", i, n, m.Spec().MFlops)
			}
		}
	})
}

func TestSelectHonorsConstraints(t *testing.T) {
	w := bootSim(t, simnet.PaperCluster(), simnet.Idle)
	w.run(func(p sched.Proc) {
		p.Sleep(time.Second)
		st := w.stations[w.names[0]]
		constr := params.NewConstraints().
			MustSet(params.NodeName, "!=", "milena").
			MustSet(params.PeakBandwd, ">=", 100)
		got, err := SelectNodes(p, st, w.names[0], SelectOpts{N: 6, Constr: constr, Reserve: true})
		if err != nil {
			t.Fatalf("select: %v", err)
		}
		for _, n := range got {
			if n == "milena" {
				t.Error("constraint node.name != milena violated")
			}
			m, _ := w.fab.ByName(n)
			if m.Spec().LinkMbps < 100 {
				t.Errorf("%s is on the slow segment", n)
			}
		}
		// Only 7 Ultras exist and milena is one of them: requesting 7
		// non-milena fast nodes must fail.
		if _, err := SelectNodes(p, st, w.names[0], SelectOpts{N: 7, Constr: constr, Reserve: true}); err == nil {
			t.Error("over-allocation succeeded")
		}
	})
}

func TestSelectByName(t *testing.T) {
	w := bootSim(t, simnet.PaperCluster(), simnet.Idle)
	w.run(func(p sched.Proc) {
		p.Sleep(time.Second)
		st := w.stations[w.names[0]]
		got, err := SelectNodes(p, st, w.names[0], SelectOpts{N: 1, Name: "rachel", Reserve: true})
		if err != nil || len(got) != 1 || got[0] != "rachel" {
			t.Fatalf("select by name = %v, %v", got, err)
		}
		if _, err := SelectNodes(p, st, w.names[0], SelectOpts{N: 1, Name: "ghost", Reserve: true}); err == nil {
			t.Error("select of unknown host succeeded")
		}
	})
}

func TestSelectExcludeAndSpread(t *testing.T) {
	w := bootSim(t, simnet.UniformCluster(simnet.Ultra10_300, 4), simnet.Idle)
	w.run(func(p sched.Proc) {
		p.Sleep(time.Second)
		st := w.stations[w.names[0]]
		a, err := SelectNodes(p, st, w.names[0], SelectOpts{N: 2, Spread: true, Reserve: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SelectNodes(p, st, w.names[0], SelectOpts{N: 2, Spread: true, Reserve: true})
		if err != nil {
			t.Fatal(err)
		}
		// With spreading, the second allocation must avoid the first
		// (uniform machines, so reservation count decides).
		for _, n := range b {
			for _, m := range a {
				if n == m {
					t.Errorf("spread allocation reused %s", n)
				}
			}
		}
		// Exclusion is absolute.
		c, err := SelectNodes(p, st, w.names[0], SelectOpts{N: 1, Exclude: []string{w.names[0], w.names[1], w.names[2]}, Reserve: true})
		if err != nil || c[0] != w.names[3] {
			t.Fatalf("exclude: got %v, %v", c, err)
		}
		// Releasing drops reservations so spreading reuses nodes.
		if err := ReleaseNodes(p, st, w.names[0], a...); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFetchSnapshotAndPing(t *testing.T) {
	w := bootSim(t, simnet.UniformCluster(simnet.Ultra10_300, 3), simnet.Idle)
	w.run(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		ag := w.agents[w.names[0]]
		snap, err := ag.FetchSnapshot(p, w.names[1])
		if err != nil || len(snap) < 40 {
			t.Fatalf("fetch: %v len=%d", err, len(snap))
		}
		if !ag.Ping(p, w.names[1]) || !ag.Ping(p, w.names[0]) {
			t.Error("ping of live nodes failed")
		}
		victim, _ := w.fab.ByName(w.names[2])
		victim.Kill()
		if ag.Ping(p, w.names[2]) {
			t.Error("ping of dead node succeeded")
		}
		if _, err := ag.FetchSnapshot(p, w.names[2]); err == nil {
			t.Error("fetch from dead node succeeded")
		}
	})
}

func topo3x2(names []string) Topology {
	// One site with two clusters: {0,1,2} and {3,4,5}.
	return Topology{{{names[0], names[1], names[2]}, {names[3], names[4], names[5]}}}
}

func TestHierarchyAggregation(t *testing.T) {
	w := bootSim(t, simnet.UniformCluster(simnet.Ultra10_300, 6), simnet.Idle)
	topo := topo3x2(w.names)
	h := NewHierarchy(w.agents, topo, w.cfg, nil)
	h.Start()
	w.run(func(p sched.Proc) {
		p.Sleep(2 * time.Second)
		defer h.Stop()
		mgr, ok := h.ClusterManager(0, 0)
		if !ok || mgr != w.names[0] {
			t.Fatalf("cluster manager = %q", mgr)
		}
		agg, ok := w.agents[mgr].Agg(ClusterKey(0, 0))
		if !ok {
			t.Fatal("no cluster aggregate")
		}
		if v, ok := agg.Get(params.Idle); !ok || v.Num < 90 {
			t.Errorf("cluster idle aggregate = %v", v)
		}
		// Uniform string parameters survive averaging.
		if v, ok := agg.Get(params.OSName); !ok || v.Str != "SunOS" {
			t.Errorf("os.name aggregate = %v", v)
		}
		// Non-uniform ones (host names) must not.
		if _, ok := agg.Get(params.NodeName); ok {
			t.Error("node.name leaked into aggregate")
		}
		// Site and domain aggregates propagate to their managers.
		sm, _ := h.SiteManager(0)
		if _, ok := w.agents[sm].Agg(SiteKey(0)); !ok {
			t.Error("no site aggregate")
		}
		dm := h.DomainManager()
		if dm != w.names[0] {
			t.Errorf("domain manager = %s", dm)
		}
		if _, ok := w.agents[dm].Agg(DomainKey); !ok {
			t.Error("no domain aggregate")
		}
		if m, ok := h.ManagerOf(ClusterKey(0, 1)); !ok || m != w.names[3] {
			t.Errorf("ManagerOf cluster:0:1 = %q", m)
		}
	})
}

func TestHierarchyMemberFailure(t *testing.T) {
	w := bootSim(t, simnet.UniformCluster(simnet.Ultra10_300, 6), simnet.Idle)
	var mu sync.Mutex
	var events []Event
	h := NewHierarchy(w.agents, topo3x2(w.names), w.cfg, func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	h.Start()
	w.run(func(p sched.Proc) {
		p.Sleep(time.Second)
		victim, _ := w.fab.ByName(w.names[2]) // non-manager member
		victim.Kill()
		p.Sleep(3 * time.Second)
		defer h.Stop()
		members := h.Members(0, 0)
		if len(members) != 2 {
			t.Fatalf("members after failure = %v", members)
		}
		mu.Lock()
		defer mu.Unlock()
		var sawFail bool
		for _, e := range events {
			if e.Kind == EventNodeFailed && e.Node == w.names[2] {
				sawFail = true
			}
		}
		if !sawFail {
			t.Fatalf("no NodeFailed event for %s: %v", w.names[2], events)
		}
	})
}

func TestHierarchyManagerTakeover(t *testing.T) {
	w := bootSim(t, simnet.UniformCluster(simnet.Ultra10_300, 6), simnet.Idle)
	var mu sync.Mutex
	var events []Event
	h := NewHierarchy(w.agents, topo3x2(w.names), w.cfg, func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	h.Start()
	w.run(func(p sched.Proc) {
		p.Sleep(time.Second)
		// Kill the manager of cluster 0:0, which is also site manager
		// and domain manager: all three roles must cascade.
		victim, _ := w.fab.ByName(w.names[0])
		victim.Kill()
		p.Sleep(5 * time.Second)
		defer h.Stop()
		cm, ok := h.ClusterManager(0, 0)
		if !ok || cm != w.names[1] {
			t.Errorf("new cluster manager = %q, want %s (backup)", cm, w.names[1])
		}
		sm, ok := h.SiteManager(0)
		if !ok || sm == w.names[0] {
			t.Errorf("site manager still %q", sm)
		}
		dm := h.DomainManager()
		if dm == w.names[0] || dm == "" {
			t.Errorf("domain manager still %q", dm)
		}
		// The new managers must produce aggregates.
		if _, ok := w.agents[cm].Agg(ClusterKey(0, 0)); !ok {
			t.Error("promoted manager produced no aggregate")
		}
		mu.Lock()
		defer mu.Unlock()
		var changed int
		for _, e := range events {
			if e.Kind == EventManagerChanged && e.Old == w.names[0] {
				changed++
			}
		}
		if changed < 3 {
			t.Errorf("expected >=3 ManagerChanged events (cluster, site, domain), got %d: %v", changed, events)
		}
	})
}

func TestHierarchyVoluntaryRemove(t *testing.T) {
	w := bootSim(t, simnet.UniformCluster(simnet.Ultra10_300, 6), simnet.Idle)
	var mu sync.Mutex
	var events []Event
	h := NewHierarchy(w.agents, topo3x2(w.names), w.cfg, func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	h.Start()
	w.run(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		h.RemoveNode(w.names[3]) // manager of cluster 0:1, still alive
		p.Sleep(time.Second)
		defer h.Stop()
		cm, ok := h.ClusterManager(0, 1)
		if !ok || cm != w.names[4] {
			t.Errorf("cluster 0:1 manager = %q, want %s", cm, w.names[4])
		}
		mu.Lock()
		defer mu.Unlock()
		for _, e := range events {
			if e.Kind == EventNodeFailed {
				t.Errorf("voluntary removal produced failure event: %v", e)
			}
		}
	})
}

func TestTopologyHelpers(t *testing.T) {
	topo := Topology{{{"a", "b"}, {"c"}}, {{"d"}}}
	if got := topo.Nodes(); len(got) != 4 {
		t.Fatalf("Nodes = %v", got)
	}
	cl := topo.Clone()
	cl[0][0][0] = "x"
	if topo[0][0][0] != "a" {
		t.Fatal("Clone not deep")
	}
	if ClusterKey(1, 2) != "cluster:1:2" || SiteKey(3) != "site:3" {
		t.Fatal("key format changed")
	}
	e := Event{Kind: EventNodeFailed, Component: "cluster:0:0", Node: "a"}
	if !strings.Contains(e.String(), "failed") {
		t.Fatal("event string")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	d := DefaultConfig()
	if c != d {
		t.Fatalf("withDefaults = %+v, want %+v", c, d)
	}
	custom := Config{MonitorPeriod: time.Second}.withDefaults()
	if custom.MonitorPeriod != time.Second || custom.FailTimeout != d.FailTimeout {
		t.Fatalf("partial defaults wrong: %+v", custom)
	}
}

// Real-time smoke test with synthetic samplers over the in-memory
// transport: the same stack must work outside the simulation.
func TestRealTimeSmoke(t *testing.T) {
	s := sched.Real()
	net := rmi.NewMem(s, 0)
	cfg := Config{
		MonitorPeriod: 10 * time.Millisecond,
		FailTimeout:   50 * time.Millisecond,
		CallTimeout:   30 * time.Millisecond,
	}
	names := []string{"alpha", "beta", "gamma"}
	stations := make(map[string]*rmi.Station)
	agents := make(map[string]*Agent)
	var dir *Directory
	for i, n := range names {
		ep, err := net.Attach(n)
		if err != nil {
			t.Fatal(err)
		}
		st := rmi.NewStation(s, ep)
		stations[n] = st
		if n == "alpha" {
			dir = NewDirectory(st, cfg)
		}
		snap := params.Snapshot{
			params.NodeName:   params.Text(n),
			params.Idle:       params.Float(float64(50 + 10*i)),
			params.PeakMFlops: params.Float(float64(100 * (i + 1))),
		}
		agents[n] = NewAgent(st, NewSynthSampler(snap), cfg, "alpha")
	}
	for _, st := range stations {
		st.Start()
	}
	for _, a := range agents {
		a.Start()
	}
	defer func() {
		for _, a := range agents {
			a.Stop()
		}
		time.Sleep(3 * cfg.MonitorPeriod)
		for _, st := range stations {
			st.Close()
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(dir.Nodes(s.Now())) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("directory never saw all nodes: %v", dir.Nodes(s.Now()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	p := sched.RealProc(s)
	got, err := SelectNodes(p, stations["beta"], "alpha", SelectOpts{N: 1, Reserve: true})
	if err != nil || got[0] != "gamma" { // highest peak × idle
		t.Fatalf("select = %v, %v", got, err)
	}
	// Silence gamma; the directory must notice.
	agents["gamma"].Stop()
	deadline = time.Now().Add(5 * time.Second)
	for {
		dead := dir.DeadNodes(s.Now())
		if len(dead) == 1 && dead[0] == "gamma" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gamma never declared dead: %v", dead)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSimSamplerFullCatalog(t *testing.T) {
	clk := vclock.New()
	fab := simnet.New(clk, simnet.PaperCluster(), simnet.Day, 3)
	s := SimSampler{M: fab.Machine(0)}
	snap := s.Sample(time.Second)
	if len(snap) != params.Count() {
		t.Errorf("SimSampler reports %d parameters, the catalog has %d", len(snap), params.Count())
	}
	for _, id := range snap.IDs() {
		if !params.IsValid(id) {
			t.Errorf("SimSampler reports %s, which is not in the catalog", id)
		}
	}
	if v, _ := snap.Get(params.Idle); v.Num < 0 || v.Num > 100 {
		t.Errorf("idle out of range: %v", v)
	}
}

func TestSynthSamplerSampleCopies(t *testing.T) {
	sp := NewSynthSampler(params.Snapshot{params.Idle: params.Float(90)})
	sp.Sample(0).SetFloat(params.Idle, 0)
	if v, _ := sp.Sample(0).Get(params.Idle); v.Num != 90 {
		t.Fatal("Sample returned shared snapshot")
	}
}

func TestItoa(t *testing.T) {
	for _, tt := range []struct {
		in   int
		want string
	}{{0, "0"}, {7, "7"}, {13, "13"}, {255, "255"}} {
		if got := itoa(tt.in); got != tt.want {
			t.Errorf("itoa(%d) = %q", tt.in, got)
		}
	}
}

func BenchmarkHierarchyRoundVirtual(b *testing.B) {
	// Cost of one full monitoring round on the 13-node paper cluster
	// (wall-clock cost of simulating it, not virtual time).
	clk := vclock.New()
	s := sched.Virtual(clk)
	fab := simnet.New(clk, simnet.PaperCluster(), simnet.Idle, 1)
	net := rmi.NewFab(fab, rmi.DefaultCost)
	cfg := testConfig()
	agents := make(map[string]*Agent)
	var stations []*rmi.Station
	var names []string
	for _, m := range fab.Machines() {
		names = append(names, m.Name())
		ep, _ := net.Attach(m.Name())
		st := rmi.NewStation(s, ep)
		stations = append(stations, st)
		agents[m.Name()] = NewAgent(st, SimSampler{M: m}, cfg, "")
		st.Start()
	}
	for _, a := range agents {
		a.Start()
	}
	topo := Topology{{names[:4], names[4:8]}, {names[8:13]}}
	h := NewHierarchy(agents, topo, cfg, nil)
	h.Start()
	p, done := sched.AdoptVirtual(s, "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Sleep(cfg.MonitorPeriod)
	}
	b.StopTimer()
	h.Stop()
	for _, a := range agents {
		a.Stop()
	}
	p.Sleep(2 * cfg.MonitorPeriod)
	for _, st := range stations {
		st.Close()
	}
	done()
	clk.Run()
	_ = fmt.Sprint()
}

// TestMessagesRoundTrip: every NAS body and the snapshot inside it come
// back DeepEqual through rmi.Marshal/Unmarshal.
func TestMessagesRoundTrip(t *testing.T) {
	snap := params.Snapshot{"idle": params.Float(50), "name": params.Text("milena"), "cpus": params.Int(4)}
	for _, in := range []any{
		snap,
		reportMsg{Node: "n1", Snap: snap},
		aggMsg{Component: "cluster0", Snap: snap, OK: true},
		selectReq{N: 2, Constr: params.Wire{{Param: "idle", Op: params.GE, Want: params.Float(50)}},
			Exclude: []string{"n0"}, Name: "n3", Among: []string{"n3", "n4"}, SpreadOver: true, NoReserve: true},
		selectResp{Nodes: []string{"n3", "n4"}},
		listResp{Nodes: []string{"n1"}, Snaps: []params.Snapshot{snap}},
		RSetInfo{Key: "app/1", Primary: "n1", Replicas: []string{"n2"}, Mode: "strong", Lease: time.Second},
	} {
		body, err := rmi.Marshal(in)
		if err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		out := reflect.New(reflect.TypeOf(in))
		if err := rmi.Unmarshal(body, out.Interface()); err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out.Elem().Interface()) {
			t.Errorf("%T round trip:\n in  %+v\n out %+v", in, in, out.Elem().Interface())
		}
	}
}
