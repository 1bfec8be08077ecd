package shell

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"jsymphony/internal/codebase"
	"jsymphony/internal/core"
	"jsymphony/internal/nas"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
	"jsymphony/internal/slo"
	"jsymphony/internal/trace"
	"jsymphony/internal/wal"
)

func testWorld() *core.World {
	reg := codebase.NewRegistry()
	reg.Register("shell.Thing", 512, func() any { return &thing{} })
	reg.Register("shell.KV", 512, func() any { return &skv{} })
	return core.NewSimWorld(simnet.PaperCluster(), simnet.Idle, 1, core.Options{
		NAS: nas.Config{
			MonitorPeriod: 150 * time.Millisecond,
			FailTimeout:   600 * time.Millisecond,
			CallTimeout:   400 * time.Millisecond,
		},
		Registry: reg,
	})
}

type thing struct{ X int }

func (t *thing) Poke() int { t.X++; return t.X }
func (t *thing) Get() int  { return t.X }

type skv struct{ M map[string]int }

func (s *skv) Put(k string, v int) int {
	if s.M == nil {
		s.M = map[string]int{}
	}
	s.M[k] = v
	return v
}
func (s *skv) Get(k string) int { return s.M[k] }

func TestShellCommands(t *testing.T) {
	w := testWorld()
	sh := New(w)
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)

		out, err := sh.Exec(p, "nodes")
		if err != nil || !strings.Contains(out, "milena") {
			t.Errorf("nodes: %v\n%s", err, out)
		}
		out, err = sh.Exec(p, "params milena")
		if err != nil || !strings.Contains(out, "cpu.idle") {
			t.Errorf("params: %v\n%s", err, out)
		}
		if _, err := sh.Exec(p, "params ghost"); err == nil {
			t.Error("params of unknown node succeeded")
		}

		// Create an object so objects/stats have content.
		a, err := w.Register(w.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		defer a.Unregister(p)
		cb := a.NewCodebase()
		cb.Add("shell.Thing")
		cb.LoadNodes(p, w.Nodes()...)
		obj, err := a.NewObject(p, "shell.Thing", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		obj.SInvoke(p, "Poke")

		out, err = sh.Exec(p, "objects")
		if err != nil || !strings.Contains(out, "1") {
			t.Errorf("objects: %v\n%s", err, out)
		}
		out, err = sh.Exec(p, "stats")
		if err != nil || !strings.Contains(out, "NODE") {
			t.Errorf("stats: %v\n%s", err, out)
		}
		if !strings.Contains(out, "TIMEOUT") || !strings.Contains(out, "STALE") ||
			!strings.Contains(out, "TOTAL") {
			t.Errorf("stats missing timeout/stale/aggregate row:\n%s", out)
		}

		// Observability: metrics dump, prefix filter, histograms, spans, top.
		out, err = sh.Exec(p, "metrics")
		if err != nil || !strings.Contains(out, "js_core_invocations_total") {
			t.Errorf("metrics: %v\n%s", err, out)
		}
		out, err = sh.Exec(p, "metrics js_rmi")
		if err != nil || !strings.Contains(out, "js_rmi_calls_total") ||
			strings.Contains(out, "js_core") {
			t.Errorf("metrics prefix filter: %v\n%s", err, out)
		}
		w.Metrics().Histogram("js_shell_test_us", nil).Observe(75)
		out, err = sh.Exec(p, "hist js_shell_test_us")
		if err != nil || !strings.Contains(out, "count=1") {
			t.Errorf("hist: %v\n%s", err, out)
		}
		if _, err := sh.Exec(p, "hist nosuch"); err == nil {
			t.Error("hist of unknown histogram succeeded")
		}
		ref, _ := obj.Ref()
		for _, cmd := range []string{
			"spans",
			"spans " + ref.App,
			fmt.Sprintf("spans %s/%d", ref.App, ref.ID),
		} {
			out, err = sh.Exec(p, cmd)
			if err != nil || !strings.Contains(out, "Poke") {
				t.Errorf("%s: %v\n%s", cmd, err, out)
			}
		}
		if out, err := sh.Exec(p, "spans nobody"); err != nil || !strings.Contains(out, "no spans") {
			t.Errorf("spans of unknown app: %v %s", err, out)
		}
		if _, err := sh.Exec(p, "spans a/x"); err == nil {
			t.Error("bad object id accepted")
		}
		out, err = sh.Exec(p, "top")
		if err != nil || !strings.Contains(out, "UTIL%") || !strings.Contains(out, "milena") {
			t.Errorf("top: %v\n%s", err, out)
		}

		// Persistent storage listing.
		if _, err := obj.Store(p, "shell-key"); err != nil {
			t.Fatal(err)
		}
		out, err = sh.Exec(p, "storage")
		if err != nil || !strings.Contains(out, "shell-key") {
			t.Errorf("storage: %v\n%s", err, out)
		}

		// This world has no durability layer: wal degrades gracefully.
		if out, err := sh.Exec(p, "wal"); err != nil || !strings.Contains(out, "durability not enabled") {
			t.Errorf("wal without durability: %v %s", err, out)
		}

		// Auto-migration toggles.
		if out, err = sh.Exec(p, "automigrate on 250ms"); err != nil || !strings.Contains(out, "250ms") {
			t.Errorf("automigrate on: %v %s", err, out)
		}
		if out, err = sh.Exec(p, "automigrate off"); err != nil || !strings.Contains(out, "disabled") {
			t.Errorf("automigrate off: %v %s", err, out)
		}
		if _, err = sh.Exec(p, "automigrate sideways"); err == nil {
			t.Error("bad automigrate accepted")
		}

		// Default constraints.
		if _, err = sh.Exec(p, "constraints set cpu.idle >= 50"); err != nil {
			t.Errorf("constraints set: %v", err)
		}
		if w.DefaultConstraints().Len() != 1 {
			t.Error("constraint not installed")
		}
		out, _ = sh.Exec(p, "constraints show")
		if !strings.Contains(out, "cpu.idle >= 50") {
			t.Errorf("constraints show: %s", out)
		}
		if _, err = sh.Exec(p, "constraints set bogus >= 1"); err == nil {
			t.Error("bad parameter accepted")
		}
		sh.Exec(p, "constraints clear")
		if w.DefaultConstraints() != nil {
			t.Error("constraints clear failed")
		}

		// Failure injection.
		if out, err = sh.Exec(p, "kill rachel"); err != nil || !strings.Contains(out, "killed") {
			t.Errorf("kill: %v %s", err, out)
		}
		p.Sleep(2 * time.Second)
		out, _ = sh.Exec(p, "nodes")
		if !strings.Contains(out, "rachel") {
			t.Errorf("killed node vanished from listing:\n%s", out)
		}
		if out, err = sh.Exec(p, "revive rachel"); err != nil || !strings.Contains(out, "revived") {
			t.Errorf("revive: %v %s", err, out)
		}

		// Chaos: plan/status before anything is installed, operator
		// injection (auto-installs an empty-plan injector), and status
		// reflecting the active fault.
		if out, _ := sh.Exec(p, "chaos plan"); !strings.Contains(out, "no chaos installed") {
			t.Errorf("chaos plan before install: %s", out)
		}
		if out, _ := sh.Exec(p, "chaos status"); !strings.Contains(out, "no chaos installed") {
			t.Errorf("chaos status before install: %s", out)
		}
		if _, err := sh.Exec(p, "chaos inject explode:clara"); err == nil {
			t.Error("bad fault accepted")
		}
		out, err = sh.Exec(p, "chaos inject loss:milena/rachel:0.05")
		if err != nil || !strings.Contains(out, "injected: loss milena/rachel 5.0%") {
			t.Errorf("chaos inject: %v %s", err, out)
		}
		if w.Chaos() == nil {
			t.Error("inject did not auto-install an injector")
		}
		out, err = sh.Exec(p, "chaos status")
		if err != nil || !strings.Contains(out, "faults applied: 1") ||
			!strings.Contains(out, "milena/rachel") {
			t.Errorf("chaos status: %v\n%s", err, out)
		}
		if out, err = sh.Exec(p, "chaos plan"); err != nil || !strings.Contains(out, "empty chaos plan") {
			t.Errorf("chaos plan after auto-install: %v %s", err, out)
		}
		if _, err := sh.Exec(p, "chaos"); err == nil {
			t.Error("bare chaos accepted")
		}
		if _, err := sh.Exec(p, "chaos frob"); err == nil {
			t.Error("unknown chaos subcommand accepted")
		}

		// Misc.
		if out, _ := sh.Exec(p, "help"); !strings.Contains(out, "automigrate") {
			t.Error("help incomplete")
		}
		if out, _ := sh.Exec(p, "help"); !strings.Contains(out, "chaos inject") {
			t.Error("help missing chaos commands")
		}
		if out, err := sh.Exec(p, ""); err != nil || out != "" {
			t.Error("empty line not a no-op")
		}
		if _, err := sh.Exec(p, "frobnicate"); err == nil {
			t.Error("unknown command accepted")
		}
	})
}

// TestShellReplicaCommands: the operator can replicate an object with
// "rset" and inspect the resulting sets with "replicas".
func TestShellReplicaCommands(t *testing.T) {
	w := testWorld()
	sh := New(w)
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		if out, err := sh.Exec(p, "replicas"); err != nil || !strings.Contains(out, "no replicated objects") {
			t.Errorf("replicas before any rset: %v %s", err, out)
		}
		a, err := w.Register(w.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		defer a.Unregister(p)
		cb := a.NewCodebase()
		cb.Add("shell.Thing")
		cb.LoadNodes(p, w.Nodes()...)
		obj, err := a.NewObject(p, "shell.Thing", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		obj.SInvoke(p, "Poke")
		ref, _ := obj.Ref()
		handle := fmt.Sprintf("%s/%d", ref.App, ref.ID)

		out, err := sh.Exec(p, "rset "+handle+" n=2 mode=strong reads=Get lease=300ms")
		if err != nil || !strings.Contains(out, "replicated "+handle) {
			t.Fatalf("rset: %v\n%s", err, out)
		}
		out, err = sh.Exec(p, "replicas")
		if err != nil || !strings.Contains(out, handle) || !strings.Contains(out, "strong") ||
			!strings.Contains(out, "300ms") || !strings.Contains(out, "Get") {
			t.Errorf("replicas listing: %v\n%s", err, out)
		}
		// The set routes reads; state stays correct through it.
		if got, err := obj.SInvoke(p, "Get"); err != nil || got.(int) != 1 {
			t.Errorf("read through shell-made set = %v, %v", got, err)
		}

		// Error paths.
		for _, bad := range []string{
			"rset",
			"rset " + handle,
			"rset noslash n=2",
			"rset " + ref.App + "/x n=2",
			"rset " + handle + " n=two",
			"rset " + handle + " n=2 mode=quantum",
			"rset " + handle + " n=2 lease=sideways",
			"rset " + handle + " n=2 frob=1",
			"rset ghost/1 n=2",
		} {
			if _, err := sh.Exec(p, bad); err == nil {
				t.Errorf("%q accepted", bad)
			}
		}
		if out, _ := sh.Exec(p, "help"); !strings.Contains(out, "rset") || !strings.Contains(out, "replicas") {
			t.Error("help missing replica commands")
		}
	})
}

// TestShellObservabilityCommands: the operator can inspect SLO
// attainment, per-shard hot keys, the slowest invocations, a request's
// critical path, and metric-sorted node rankings.
func TestShellObservabilityCommands(t *testing.T) {
	w := testWorld()
	sh := New(w)
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		if out, _ := sh.Exec(p, "slo"); !strings.Contains(out, "no classified requests") {
			t.Errorf("slo before traffic: %s", out)
		}
		if out, _ := sh.Exec(p, "hotkeys"); !strings.Contains(out, "no shard key traffic") {
			t.Errorf("hotkeys before traffic: %s", out)
		}
		for _, class := range []string{core.ClassRead, core.ClassWrite} {
			if err := w.DeclareSLO(slo.SLO{Class: class, Target: 2 * time.Second, Percentile: 99}); err != nil {
				t.Fatal(err)
			}
		}

		a, err := w.Register(w.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		defer a.Unregister(p)
		cb := a.NewCodebase()
		cb.Add("shell.KV")
		cb.LoadNodes(p, w.Nodes()...)
		g, err := a.NewShardGroup(p, "kv", "shell.KV", core.ShardSpec{
			Shards: 2,
			Reads:  []string{"Get"},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Planted hot key plus a thin cold tail, then reads.
		for i := 0; i < 8; i++ {
			if _, err := g.Invoke(p, "hot", "Put", "hot", i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			k := fmt.Sprintf("cold-%d", i)
			if _, err := g.Invoke(p, k, "Put", k, i); err != nil {
				t.Fatal(err)
			}
		}
		if v, err := g.Invoke(p, "hot", "Get", "hot"); err != nil || v.(int) != 7 {
			t.Fatalf("read through group = %v, %v", v, err)
		}

		out, err := sh.Exec(p, "slo")
		if err != nil || !strings.Contains(out, "CLASS") ||
			!strings.Contains(out, "write") || !strings.Contains(out, "read") {
			t.Errorf("slo: %v\n%s", err, out)
		}
		out, err = sh.Exec(p, "hotkeys")
		if err != nil || !strings.Contains(out, "hot") || !strings.Contains(out, "GROUP") {
			t.Errorf("hotkeys: %v\n%s", err, out)
		}
		full := strings.Count(out, "\n")
		out, err = sh.Exec(p, "hotkeys 1")
		if err != nil || strings.Count(out, "\n") > full {
			t.Errorf("hotkeys 1 did not narrow the listing: %v\n%s", err, out)
		}
		for _, bad := range []string{"hotkeys 0", "hotkeys x", "hotkeys 1 2"} {
			if _, err := sh.Exec(p, bad); err == nil {
				t.Errorf("%q accepted", bad)
			}
		}

		// spans -slow: bounded, slowest first.
		out, err = sh.Exec(p, "spans -slow 3")
		if err != nil || strings.Count(out, "\n") > 3 {
			t.Errorf("spans -slow 3: %v\n%s", err, out)
		}
		for _, bad := range []string{"spans -slow 0", "spans -slow x", "spans -slow"} {
			if _, err := sh.Exec(p, bad); err == nil {
				t.Errorf("%q accepted", bad)
			}
		}

		// critpath on a real classified root span — the slowest Put, so
		// the breakdown has latency to attribute and names a dominant hop.
		var id uint64
		var slowest time.Duration
		for _, sp := range w.Spans().Spans() {
			if sp.Method == "Put" && sp.Kind == trace.SpanSync && sp.Total() >= slowest {
				id, slowest = sp.ID, sp.Total()
			}
		}
		if id == 0 || slowest == 0 {
			t.Fatal("no Put span with nonzero latency recorded")
		}
		out, err = sh.Exec(p, fmt.Sprintf("critpath %d", id))
		if err != nil || !strings.Contains(out, "dominant:") {
			t.Errorf("critpath: %v\n%s", err, out)
		}
		for _, bad := range []string{"critpath", "critpath x", "critpath 999999999"} {
			if _, err := sh.Exec(p, bad); err == nil {
				t.Errorf("%q accepted", bad)
			}
		}

		// top with an explicit sort metric; unknown metrics rejected.
		out, err = sh.Exec(p, "top calls")
		if err != nil || !strings.Contains(out, "CALLS") {
			t.Errorf("top calls: %v\n%s", err, out)
		}
		if _, err := sh.Exec(p, "top bogus"); err == nil {
			t.Error("top bogus accepted")
		}
		if _, err := sh.Exec(p, "top calls served"); err == nil {
			t.Error("top with two metrics accepted")
		}

		if out, _ := sh.Exec(p, "help"); !strings.Contains(out, "slo") ||
			!strings.Contains(out, "hotkeys") || !strings.Contains(out, "critpath") {
			t.Error("help missing observability commands")
		}
	})
}

// TestShellWALCommand: on a durability-enabled world the wal command
// renders per-node media statistics, and the js_wal_* instruments are
// reachable through the metrics/hist commands.
func TestShellWALCommand(t *testing.T) {
	reg := codebase.NewRegistry()
	reg.Register("shell.Thing", 512, func() any { return &thing{} })
	w := core.NewSimWorld(simnet.PaperCluster(), simnet.Idle, 1, core.Options{
		NAS: nas.Config{
			MonitorPeriod: 150 * time.Millisecond,
			FailTimeout:   600 * time.Millisecond,
			CallTimeout:   400 * time.Millisecond,
		},
		Registry:   reg,
		Durability: &core.DurabilityOptions{Stable: wal.NewStable(1)},
	})
	sh := New(w)
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, err := w.Register(w.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		defer a.Unregister(p)
		cb := a.NewCodebase()
		cb.Add("shell.Thing")
		cb.LoadNodes(p, w.Nodes()...)
		obj, err := a.NewObject(p, "shell.Thing", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := obj.Persist(p, "Get"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := obj.SInvoke(p, "Poke"); err != nil {
				t.Fatal(err)
			}
		}

		out, err := sh.Exec(p, "wal")
		if err != nil || !strings.Contains(out, "NODE") || !strings.Contains(out, "APPENDS") {
			t.Fatalf("wal: %v\n%s", err, out)
		}
		home, err := obj.NodeName()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, home) {
			t.Errorf("wal listing missing the durable object's node %s:\n%s", home, out)
		}
		if strings.Contains(out, "durability not enabled") {
			t.Errorf("wal claims durability off on a durable world:\n%s", out)
		}

		// The instruments behind the listing are operator-visible too.
		out, err = sh.Exec(p, "metrics js_wal")
		if err != nil || !strings.Contains(out, "js_wal_appends_total") ||
			!strings.Contains(out, "js_wal_flushes_total") {
			t.Errorf("metrics js_wal: %v\n%s", err, out)
		}
		out, err = sh.Exec(p, "hist js_wal_batch_records")
		if err != nil || strings.Contains(out, "count=0") {
			t.Errorf("hist js_wal_batch_records: %v\n%s", err, out)
		}
		if out, _ := sh.Exec(p, "help"); !strings.Contains(out, "wal") {
			t.Error("help missing wal command")
		}
	})
}

func TestShellFailureCommandsNeedSim(t *testing.T) {
	w := core.NewLocalWorld([]string{"a", "b"}, core.Options{})
	sh := New(w)
	p := sched.RealProc(w.Sched())
	if _, err := sh.Exec(p, "kill a"); err == nil {
		t.Fatal("kill on real world accepted")
	}
}
