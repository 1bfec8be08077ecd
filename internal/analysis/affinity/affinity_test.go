package affinity

import (
	"bytes"
	"testing"

	"jsymphony/internal/analysis/loader"
	"jsymphony/internal/place"
)

// testCache is shared across the suite: fixtures live in one module,
// so the stdlib and jsymphony export data is read once, not per test.
var testCache = loader.NewCache()

// loadGraph analyzes one fixture package under testdata.
func loadGraph(t *testing.T, pattern string) *Graph {
	t.Helper()
	pkgs, err := testCache.Load("testdata", pattern)
	if err != nil {
		t.Fatalf("load %s: %v", pattern, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("load %s: got %d packages, want 1", pattern, len(pkgs))
	}
	g, ok := Analyze(pkgs[0])
	if !ok {
		t.Fatalf("analyze %s: no //jsplace:entry function found", pattern)
	}
	return g
}

func wantSites(t *testing.T, g *Graph, want []Site) {
	t.Helper()
	if len(g.Sites) != len(want) {
		t.Fatalf("sites = %+v, want %+v", g.Sites, want)
	}
	for i, s := range want {
		if g.Sites[i] != s {
			t.Errorf("site[%d] = %+v, want %+v", i, g.Sites[i], s)
		}
	}
}

func wantEdges(t *testing.T, g *Graph, want []Edge) {
	t.Helper()
	if len(g.Edges) != len(want) {
		t.Fatalf("edges = %+v, want %+v", g.Edges, want)
	}
	for i, e := range want {
		if g.Edges[i] != e {
			t.Errorf("edge[%d] = %v--%v w=%d, want %v--%v w=%d",
				i, g.Edges[i].A, g.Edges[i].B, g.Edges[i].W, e.A, e.B, e.W)
		}
	}
}

// The star fixture: a const-bound creation loop and driver-side
// invocations only.  One Init plus three Work rounds per slave.
func TestAnalyzeStar(t *testing.T) {
	g := loadGraph(t, "./star")
	wantSites(t, g, []Site{{Tag: "slaves", Class: "star.Slave", Fanout: 4}})
	main := Instance{place.MainSite, 0}
	var want []Edge
	for i := 0; i < 4; i++ {
		want = append(want, Edge{A: main, B: Instance{"slaves", i}, W: 4})
	}
	wantEdges(t, g, want)
}

// The chain fixture: neighbor refs stored through a SetNeighbors
// summary, then Exchange rounds invoking through the stored fields.
// main→strip carries 1 SetNeighbors + 5 Exchange; each adjacent pair
// carries 5 Left pulls + 5 Right pulls.
func TestAnalyzeChain(t *testing.T) {
	g := loadGraph(t, "./chain")
	wantSites(t, g, []Site{{Tag: "strips", Class: "chain.Strip", Fanout: 6}})
	main := Instance{place.MainSite, 0}
	var want []Edge
	for i := 0; i < 6; i++ {
		want = append(want, Edge{A: main, B: Instance{"strips", i}, W: 6})
	}
	for i := 0; i < 5; i++ {
		want = append(want, Edge{A: Instance{"strips", i}, B: Instance{"strips", i + 1}, W: 10})
	}
	wantEdges(t, g, want)
}

// The fleet fixture: the store ref flows to Reader.Run as an argument,
// Run loops an unknown bound (defaultTrip=8) calling a helper that the
// fixed-point folds back into Run's summary.
func TestAnalyzeFleet(t *testing.T) {
	g := loadGraph(t, "./fleet")
	wantSites(t, g, []Site{
		{Tag: "readers", Class: "fleet.Reader", Fanout: 3},
		{Tag: "store", Class: "fleet.Store", Fanout: 1},
	})
	main := Instance{place.MainSite, 0}
	store := Instance{"store", 0}
	var want []Edge
	for i := 0; i < 3; i++ {
		want = append(want, Edge{A: main, B: Instance{"readers", i}, W: 1})
	}
	for i := 0; i < 3; i++ {
		want = append(want, Edge{A: Instance{"readers", i}, B: store, W: 8})
	}
	wantEdges(t, g, want)
}

// A package without //jsplace:entry yields ok=false, not an error.
func TestAnalyzeNoEntry(t *testing.T) {
	pkgs, err := loader.Load("..", "./testdata/errcmp")
	if err != nil {
		t.Skipf("shared fixtures unavailable: %v", err)
	}
	if _, ok := Analyze(pkgs[0]); ok {
		t.Fatal("analyze reported ok for a package with no entry functions")
	}
}

// BuildHints must be byte-deterministic: two independent loads of the
// same fixture encode to identical bytes.  This one deliberately skips
// the shared test cache — a memoized reload would prove nothing.
func TestBuildHintsDeterministic(t *testing.T) {
	var runs [][]byte
	for i := 0; i < 2; i++ {
		pkgs, err := loader.Load("testdata", "./chain")
		if err != nil {
			t.Fatalf("load ./chain: %v", err)
		}
		g, ok := Analyze(pkgs[0])
		if !ok {
			t.Fatalf("analyze ./chain: no //jsplace:entry function found")
		}
		h := BuildHints(g, 4)
		runs = append(runs, place.Encode(h))
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("hints differ across runs:\n%s\n----\n%s", runs[0], runs[1])
	}
}

// BuildHints output must cover every vertex exactly once and respect
// the group-size cap ceil(V/budget).
func TestBuildHintsCoverage(t *testing.T) {
	for _, pat := range []string{"./star", "./chain", "./fleet"} {
		g := loadGraph(t, pat)
		budget := 4
		h := BuildHints(g, budget)
		verts := g.Vertices()
		cap_ := (len(verts) + budget - 1) / budget
		seen := make(map[place.Member]int)
		for _, grp := range h.Groups {
			if len(grp.Members) > cap_ {
				t.Errorf("%s: group %d has %d members, cap %d", pat, grp.ID, len(grp.Members), cap_)
			}
			for _, m := range grp.Members {
				seen[m]++
			}
		}
		if len(seen) != len(verts) {
			t.Errorf("%s: %d members covered, want %d", pat, len(seen), len(verts))
		}
		for m, n := range seen {
			if n != 1 {
				t.Errorf("%s: member %s[%d] appears %d times", pat, m.Site, m.Index, n)
			}
		}
	}
}

// The chain cut keeps neighbor edges mostly internal: with two nodes
// the hinted grouping must capture strictly more than half the total
// edge weight inside groups.
func TestBuildHintsChainQuality(t *testing.T) {
	g := loadGraph(t, "./chain")
	h := BuildHints(g, 2)
	member := make(map[Instance]int)
	for _, grp := range h.Groups {
		for _, m := range grp.Members {
			member[Instance{m.Site, m.Index}] = grp.ID
		}
	}
	var total, internal int64
	for _, e := range g.Edges {
		total += e.W
		if member[e.A] == member[e.B] {
			internal += e.W
		}
	}
	if internal*2 <= total {
		t.Fatalf("internal weight %d of %d — partition captured under half the affinity", internal, total)
	}
}
