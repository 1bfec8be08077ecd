// Fault tolerance: the network agent system's failure handling (paper
// §5.1).  A virtual architecture is activated on the simulated cluster,
// its manager hierarchy starts aggregating, and then the cluster/site/
// domain manager node is killed: a backup manager takes over every role
// and the installation directory declares the node dead.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"sync"
	"time"

	"jsymphony"
)

func main() {
	env := jsymphony.NewSimEnv(jsymphony.PaperCluster(), jsymphony.IdleProfile, 1, jsymphony.EnvOptions{})
	env.RunMain("", func(js *jsymphony.JS) {
		// A domain of one site with two clusters of three nodes.  The
		// directory lives on the first machine (milena); keep it out of
		// the architecture so the failure we inject hits a manager, not
		// the installation's bookkeeping (which the paper keeps on the
		// JS-Shell host).
		constr := jsymphony.NewConstraints().MustSet(jsymphony.NodeName, "!=", env.Nodes()[0])
		domain, err := js.NewDomain([][]int{{3, 3}}, constr)
		if err != nil {
			panic(err)
		}
		var mu sync.Mutex
		var events []jsymphony.NASEvent
		h := js.ActivateVA(domain, nil, func(e jsymphony.NASEvent) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		})

		js.Sleep(2 * time.Second) // a few monitoring rounds
		mgr := h.DomainManager()
		fmt.Println("domain manager:", mgr)
		if cm, ok := h.ClusterManager(0, 0); ok {
			fmt.Println("cluster 0 manager:", cm)
		}

		// Kill the domain manager's machine.  It also manages its
		// cluster and site (only a site manager can be a domain
		// manager), so all three roles must cascade to backups.
		if sm, _ := h.SiteManager(0); sm != mgr {
			panic("domain manager " + mgr + " does not manage site 0")
		}
		victim, _ := env.World().Fabric().ByName(mgr)
		victim.Kill()
		fmt.Printf("\n*** killed %s ***\n\n", mgr)
		js.Sleep(6 * time.Second) // detection + takeover

		mu.Lock()
		for _, e := range events {
			fmt.Println("event:", e)
		}
		mu.Unlock()

		fmt.Println("\nnew domain manager:", h.DomainManager())
		if cm, ok := h.ClusterManager(0, 0); ok {
			fmt.Println("new cluster 0 manager:", cm)
		}
		fmt.Println("cluster 0 members now:", h.Members(0, 0))

		// The directory notices the silence independently.
		dead := env.World().Directory().DeadNodes(js.Now())
		fmt.Println("directory dead list:", dead)

		// The installation keeps working: aggregates still flow.
		site, _ := domain.Site(0)
		if idle, err := js.SysParam(site, jsymphony.Idle); err == nil {
			fmt.Printf("site average idle after failure: %.1f%%\n", idle.Num)
		}
	})
}
