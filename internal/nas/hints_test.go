package nas

import (
	"reflect"
	"testing"
	"time"

	"jsymphony/internal/params"
	"jsymphony/internal/sched"
	"jsymphony/internal/simnet"
)

// benchDir builds a directory (no station needed: selectNodes is pure
// over the entry table) seeded with four reporting nodes:
//
//	n1: idle 90, peak 300          n3: idle 50, peak 300
//	n2: idle 90, peak 100          n4: idle 90, peak 300, 2 reservations
func benchDir() *Directory {
	d := &Directory{cfg: Config{}.withDefaults(),
		entries: make(map[string]*dirEntry), rsets: make(map[string]RSetInfo)}
	add := func(name string, idle, peak float64, reserved int) {
		snap := params.Snapshot{}
		snap.SetText(params.NodeName, name)
		snap.SetFloat(params.Idle, idle)
		snap.SetFloat(params.PeakMFlops, peak)
		d.entries[name] = &dirEntry{snap: snap, seen: time.Second, reserved: reserved}
	}
	add("n1", 90, 300, 0)
	add("n2", 90, 100, 0)
	add("n3", 50, 300, 0)
	add("n4", 90, 300, 2)
	return d
}

// TestSelectConstraintInteractions is the constraint+exclude+spread
// interaction table: each case exercises a combination the allocation
// policy has to get right at once, not one filter in isolation.
func TestSelectConstraintInteractions(t *testing.T) {
	now := time.Second
	idle80 := params.NewConstraints().MustSet(params.Idle, ">=", 80)
	colo := Colocation("n3")

	cases := []struct {
		name    string
		req     selectReq
		want    []string
		wantErr bool
	}{
		{name: "plain pick is fastest expected-delivery node",
			req:  selectReq{N: 1},
			want: []string{"n1"}}, // n4 ties on speed, n1 wins by name
		{name: "constraint filters before speed ranking",
			req:  selectReq{N: 1, Constr: idle80.Wire()},
			want: []string{"n1"}},
		{name: "constraint plus exclude removes both filtered sets",
			req:  selectReq{N: 1, Constr: idle80.Wire(), Exclude: []string{"n1", "n4"}},
			want: []string{"n2"}}, // n3 fails idle>=80, so the slow n2 wins
		{name: "spread overrides speed: least reserved wins",
			req:  selectReq{N: 3, SpreadOver: true},
			want: []string{"n1", "n3", "n2"}}, // n4's 2 reservations demote it below slower nodes
		{name: "spread plus constraint: reservations rank the survivors",
			req:  selectReq{N: 2, Constr: idle80.Wire(), SpreadOver: true},
			want: []string{"n1", "n2"}},
		{name: "spread plus exclude of the least reserved",
			req:  selectReq{N: 1, SpreadOver: true, Exclude: []string{"n1", "n3"}},
			want: []string{"n2"}},
		{name: "colocation hint as a constraint set picks exactly the node",
			req:  selectReq{N: 1, Constr: colo.Wire()},
			want: []string{"n3"}},
		{name: "colocation of an excluded node is unsatisfiable",
			req:     selectReq{N: 1, Constr: colo.Wire(), Exclude: []string{"n3"}},
			wantErr: true},
		{name: "colocation conjoined with a failing user constraint is refused",
			req:     selectReq{N: 1, Constr: colo.And(idle80).Wire()},
			wantErr: true}, // n3 idles at 50
		{name: "over-allocation under constraints fails whole",
			req:     selectReq{N: 4, Constr: idle80.Wire()},
			wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := benchDir()
			tc.req.NoReserve = true
			got, err := d.selectNodes(tc.req, now)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("got %v, want error", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

// TestColocationConstraintForm pins the emitted co-location set's shape:
// one node.name == <node> condition, so it composes with any user set.
func TestColocationConstraintForm(t *testing.T) {
	c := Colocation("n7")
	list := c.Wire()
	if len(list) != 1 || list[0].Param != params.NodeName {
		t.Fatalf("colocation set = %v", list)
	}
	snap := params.Snapshot{}
	snap.SetText(params.NodeName, "n7")
	if !c.Eval(snap) {
		t.Error("colocation constraint rejects its own node")
	}
	snap.SetText(params.NodeName, "n8")
	if c.Eval(snap) {
		t.Error("colocation constraint admits a different node")
	}
}

// TestSelectWithHintSurvivesNodeFailure is the co-location regression:
// a hint set whose pinned node dies must re-select a live node through
// the fallback path instead of failing creation.
func TestSelectWithHintSurvivesNodeFailure(t *testing.T) {
	w := bootSim(t, simnet.UniformCluster(simnet.Ultra10_300, 4), simnet.Idle)
	w.run(func(p sched.Proc) {
		p.Sleep(time.Second)
		st := w.stations[w.names[0]]
		dir := w.names[0]
		hint := w.names[2]

		// Live hint: the co-location constraint must hold exactly.
		nodes, colocated, err := SelectWithHint(p, st, dir, hint, SelectOpts{N: 1})
		if err != nil || !colocated || nodes[0] != hint {
			t.Fatalf("live hint: nodes=%v colocated=%v err=%v", nodes, colocated, err)
		}

		// Dead hint: the node crashes and its reports go stale; the same
		// query must fall back to a live node and report the co-location
		// lost.
		victim, _ := w.fab.ByName(hint)
		victim.Kill()
		p.Sleep(2 * w.cfg.FailTimeout)
		nodes, colocated, err = SelectWithHint(p, st, dir, hint, SelectOpts{N: 1})
		if err != nil {
			t.Fatalf("failover select: %v", err)
		}
		if colocated {
			t.Error("colocated=true though the hinted node is gone")
		}
		if len(nodes) != 1 || nodes[0] == hint {
			t.Fatalf("failover picked %v", nodes)
		}

		// The fallback still honors the caller's own exclusions.
		nodes, _, err = SelectWithHint(p, st, dir, hint, SelectOpts{
			N: 1, Exclude: []string{w.names[0], w.names[1]},
		})
		if err != nil || nodes[0] != w.names[3] {
			t.Fatalf("failover with exclude = %v, %v", nodes, err)
		}
	})
}
