package core

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"jsymphony/internal/nas"
	"jsymphony/internal/sched"
	"jsymphony/internal/virtarch"
)

// TestHierarchyGolden pins what an activated architecture does, step by
// step, against testdata/hierarchy_golden.txt: a two-site domain loses a
// plain member, then the node holding the cluster, site and domain
// roles, then a live cluster manager by RemoveNode, then a whole
// cluster by Free.  After each step it records the virtual time, the
// NAS events, every component's manager and aggregate, every cluster's
// members and the new trace-log lines.  The hierarchy may change how it
// does these things, never what they are.
func TestHierarchyGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/hierarchy_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	w := NewSimWorld(simSpecs(), simProfile(), 1, Options{NAS: testNAS(), Registry: testRegistry()})
	w.RunMain(func(p sched.Proc) {
		p.Sleep(500 * time.Millisecond)
		a, err := w.Register(w.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		defer a.Unregister(p)
		constr := constraintNotNode(w.Nodes()[0])
		d, err := virtarch.NewDomain(a.Allocator(p), [][]int{{3, 3}, {3}}, constr)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var events []nas.Event
		h := a.ActivateVA(d, constr, func(e nas.Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		})
		defer h.Stop()

		shape := [][2]int{{0, 0}, {0, 1}, {1, 0}}
		keys := []string{nas.ClusterKey(0, 0), nas.ClusterKey(0, 1), nas.ClusterKey(1, 0), nas.SiteKey(0), nas.SiteKey(1), nas.DomainKey}
		var seen uint64
		record := func(step string) {
			fmt.Fprintf(&got, "== %s at %v\n", step, w.Sched().Now())
			mu.Lock()
			for _, e := range events {
				fmt.Fprintf(&got, "event %s\n", e)
			}
			events = nil
			mu.Unlock()
			for _, k := range keys {
				mgr, ok := h.ManagerOf(k)
				fmt.Fprintf(&got, "manager %s = %q %v\n", k, mgr, ok)
				if !ok {
					continue
				}
				agg, ok := w.MustRuntime(mgr).Agent().Agg(k)
				fmt.Fprintf(&got, "agg %s %v:", k, ok)
				for _, id := range agg.IDs() {
					v, _ := agg.Get(id)
					fmt.Fprintf(&got, " %s=%s", id, v)
				}
				got.WriteByte('\n')
			}
			for _, sc := range shape {
				fmt.Fprintf(&got, "members %d:%d = %v\n", sc[0], sc[1], h.Members(sc[0], sc[1]))
			}
			for _, e := range w.Trace().Events() {
				if e.Seq > seen {
					fmt.Fprintf(&got, "trace %s\n", e)
					seen = e.Seq
				}
			}
		}
		kill := func(node string) {
			m, _ := w.Fabric().ByName(node)
			m.Kill()
		}

		p.Sleep(time.Second)
		record("activated")
		names := d.NodeNames() // {0,1,2} {3,4,5} in site 0, {6,7,8} in site 1
		kill(names[2])
		p.Sleep(2 * time.Second)
		record("plain member killed")
		kill(names[0])
		p.Sleep(3 * time.Second)
		record("cluster, site and domain manager killed")
		h.RemoveNode(names[3])
		p.Sleep(time.Second)
		record("cluster manager removed")
		site1, _ := d.Site(1)
		cl, _ := site1.Cluster(0)
		cl.Free()
		p.Sleep(time.Second)
		record("cluster freed")
	})
	if got.String() != string(want) {
		t.Errorf("hierarchy behaviour moved; got:\n%s", got.String())
	}
}
