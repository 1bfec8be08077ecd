package virtarch

import "jsymphony/internal/params"

// The paper's §4.2 API: each method is a view over the shared tree body.

// Node is one allocated computing node.
type Node tree

// Cluster is an ordered collection of nodes (paper: "several nodes can be
// combined to form a cluster").
type Cluster tree

// Site is a collection of clusters, usually geographically co-located
// and WAN-connected to the rest of a domain (paper §3).
type Site tree

// Domain is the top of a virtual architecture: a collection of sites,
// possibly "a large computational grid that can be distributed across
// several continents" (paper §3).
type Domain tree

// NewNode requests an arbitrary node from JRS, optionally restricted by
// constraints — the paper's "Node n1 = new Node()" / "new Node(constr)".
func NewNode(a Allocator, constr *params.Constraints) (*Node, error) { return allocNode(a, "", constr) }

// NewNamedNode requests the node with the given host name — the paper's
// "new Node(\"rachel\")".
func NewNamedNode(a Allocator, name string) (*Node, error) { return allocNode(a, name, nil) }

// NewCluster allocates a cluster of n nodes satisfying constr — the
// paper's "Cluster c1 = new Cluster(5, constr)".
func NewCluster(a Allocator, n int, constr *params.Constraints) (*Cluster, error) {
	return viewOf[*Cluster](allocate(a, clusterLevel, [][]int{{n}}, constr))
}

// NewSite allocates a site with len(clusterSizes) clusters of the given
// sizes — the paper's "Site s1 = new Site(SiteNodes, constr)" where
// SiteNodes = {2, 4, 5}.  Constraints, when given, must hold for every
// node in the site.
func NewSite(a Allocator, clusterSizes []int, constr *params.Constraints) (*Site, error) {
	return viewOf[*Site](allocate(a, siteLevel, [][]int{clusterSizes}, constr))
}

// NewDomain allocates a domain from a nested size specification — the
// paper's "Domain d1 = new Domain(DomainNodes, constr)" where DomainNodes
// = {{1,3,5},{6,4}} requests two sites of three and two clusters.
func NewDomain(a Allocator, siteClusterSizes [][]int, constr *params.Constraints) (*Domain, error) {
	return viewOf[*Domain](allocate(a, domainLevel, siteClusterSizes, constr))
}

// NewEmptyCluster returns a cluster to be filled with AddNode — the
// paper's "Cluster c2 = new Cluster()".
func NewEmptyCluster(a Allocator) *Cluster { return &Cluster{alloc: a, level: clusterLevel} }

// NewEmptySite returns a site to be filled with AddCluster — the paper's
// "Site s2 = new Site()".
func NewEmptySite(a Allocator) *Site { return &Site{alloc: a, level: siteLevel} }

// NewEmptyDomain returns a domain to be filled with AddSite — the
// paper's "Domain d2 = new Domain()".
func NewEmptyDomain(a Allocator) *Domain { return &Domain{alloc: a, level: domainLevel} }

// Name returns the physical host name.
func (n *Node) Name() string { return n.name }

// Cluster returns the node's cluster (getCluster), materializing an
// implicit singleton cluster for a standalone node so the unique-triple
// invariant always holds.
func (n *Node) Cluster() *Cluster { return (*Cluster)((*tree)(n).ancestor(clusterLevel)) }

// Site returns the node's site (getSite).
func (n *Node) Site() *Site { return (*Site)((*tree)(n).ancestor(siteLevel)) }

// Domain returns the node's domain (getDomain).
func (n *Node) Domain() *Domain { return (*Domain)((*tree)(n).ancestor(domainLevel)) }

// Free releases the node from the application (freeNode).
func (n *Node) Free() { (*tree)(n).free() }

// Freed reports whether the node has been released.
func (n *Node) Freed() bool { return (*tree)(n).isFreed() }

// NodeNames returns the node's host name, or nil once it is freed.
func (n *Node) NodeNames() []string { return (*tree)(n).nodeNames() }

// AggKey is always "": a single node has no aggregate; its parameters
// are read directly from its agent.
func (n *Node) AggKey() string { return "" }

// AddNode inserts an individually allocated node (addNode).  A node can
// belong to only one cluster.
func (c *Cluster) AddNode(n *Node) error { return (*tree)(c).add((*tree)(n)) }

// NrNodes returns the current number of nodes (nrNodes).
func (c *Cluster) NrNodes() int { return (*tree)(c).count(nodeLevel) }

// Node returns the i-th node, 0 <= i < NrNodes (getNode).
func (c *Cluster) Node(i int) (*Node, error) { return viewOf[*Node]((*tree)(c).at(i)) }

// Nodes returns the current member nodes in order.
func (c *Cluster) Nodes() []*Node { return viewsOf[*Node]((*tree)(c).list()) }

// NodeNames returns the member host names in order.
func (c *Cluster) NodeNames() []string { return (*tree)(c).nodeNames() }

// FreeNodeAt releases the i-th node (freeNode(2)); remaining nodes are
// renumbered.
func (c *Cluster) FreeNodeAt(i int) error { return (*tree)(c).freeAt(i) }

// FreeNode releases a specific member (freeNode(n2)).
func (c *Cluster) FreeNode(n *Node) error { return (*tree)(c).freeMember((*tree)(n)) }

// Free releases the whole cluster and all its nodes (freeCluster).
func (c *Cluster) Free() { (*tree)(c).free() }

// Freed reports whether the cluster has been released.
func (c *Cluster) Freed() bool { return (*tree)(c).isFreed() }

// Site returns the cluster's site (getSite), materializing an implicit
// one for a standalone cluster.
func (c *Cluster) Site() *Site { return (*Site)((*tree)(c).ancestor(siteLevel)) }

// Domain returns the cluster's domain (getDomain).
func (c *Cluster) Domain() *Domain { return (*Domain)((*tree)(c).ancestor(domainLevel)) }

// SetAggKey records the component key under which a JRS hierarchy
// aggregates this cluster; the core package sets it on activation.
func (c *Cluster) SetAggKey(k string) { (*tree)(c).setAggKey(k) }

// AggKey returns the aggregation key ("" when not activated).
func (c *Cluster) AggKey() string { return (*tree)(c).getAggKey() }

// AddCluster inserts an existing cluster (addCluster).  A cluster can
// belong to only one site.
func (s *Site) AddCluster(c *Cluster) error { return (*tree)(s).add((*tree)(c)) }

// NrClusters returns the current number of clusters (nrClusters).
func (s *Site) NrClusters() int { return (*tree)(s).count(clusterLevel) }

// NrNodes returns the total node count across clusters (nrNodes).
func (s *Site) NrNodes() int { return (*tree)(s).count(nodeLevel) }

// Cluster returns the i-th cluster (getCluster).
func (s *Site) Cluster(i int) (*Cluster, error) { return viewOf[*Cluster]((*tree)(s).at(i)) }

// Clusters returns the member clusters in order.
func (s *Site) Clusters() []*Cluster { return viewsOf[*Cluster]((*tree)(s).list()) }

// Node returns node n of cluster c — the paper's s1.getNode(2, 1)
// alternative to s1.getCluster(2).getNode(1).
func (s *Site) Node(c, n int) (*Node, error) { return viewOf[*Node]((*tree)(s).at(c, n)) }

// NodeNames returns every host name in the site.
func (s *Site) NodeNames() []string { return (*tree)(s).nodeNames() }

// FreeNode releases node n of cluster c (freeNode(2, 1)), the paper's
// shorthand for getCluster(2).freeNode(1).
func (s *Site) FreeNode(c, n int) error {
	cl, err := s.Cluster(c)
	if err != nil {
		return err
	}
	return cl.FreeNodeAt(n)
}

// FreeClusterAt releases the i-th cluster and its nodes (freeCluster(1)).
func (s *Site) FreeClusterAt(i int) error { return (*tree)(s).freeAt(i) }

// FreeCluster releases a specific member cluster (freeCluster(c2)).
func (s *Site) FreeCluster(c *Cluster) error { return (*tree)(s).freeMember((*tree)(c)) }

// Free releases the site, its clusters, and their nodes (freeSite).
func (s *Site) Free() { (*tree)(s).free() }

// Freed reports whether the site has been released.
func (s *Site) Freed() bool { return (*tree)(s).isFreed() }

// Domain returns the site's domain (getDomain), materializing an
// implicit one for a standalone site.
func (s *Site) Domain() *Domain { return (*Domain)((*tree)(s).ancestor(domainLevel)) }

// SetAggKey records the aggregation key for an active JRS hierarchy.
func (s *Site) SetAggKey(k string) { (*tree)(s).setAggKey(k) }

// AggKey returns the aggregation key ("" when not activated).
func (s *Site) AggKey() string { return (*tree)(s).getAggKey() }

// AddSite inserts an existing site (addSite).  A site can belong to only
// one domain.
func (d *Domain) AddSite(s *Site) error { return (*tree)(d).add((*tree)(s)) }

// NrSites returns the current number of sites (nrSites).
func (d *Domain) NrSites() int { return (*tree)(d).count(siteLevel) }

// NrClusters returns the total cluster count (nrClusters).
func (d *Domain) NrClusters() int { return (*tree)(d).count(clusterLevel) }

// NrNodes returns the total node count (nrNodes).
func (d *Domain) NrNodes() int { return (*tree)(d).count(nodeLevel) }

// Site returns the i-th site (getSite).
func (d *Domain) Site(i int) (*Site, error) { return viewOf[*Site]((*tree)(d).at(i)) }

// Sites returns the member sites in order.
func (d *Domain) Sites() []*Site { return viewsOf[*Site]((*tree)(d).list()) }

// Node returns node n of cluster c of site s — the paper's
// d1.getNode(1, 2, 3) shorthand.
func (d *Domain) Node(s, c, n int) (*Node, error) { return viewOf[*Node]((*tree)(d).at(s, c, n)) }

// NodeNames returns every host name in the domain.
func (d *Domain) NodeNames() []string { return (*tree)(d).nodeNames() }

// FreeNode releases node n of cluster c of site s (freeNode(1, 2, 3)),
// the shorthand for getSite(1).freeNode(2, 3).
func (d *Domain) FreeNode(s, c, n int) error {
	site, err := d.Site(s)
	if err != nil {
		return err
	}
	return site.FreeNode(c, n)
}

// FreeCluster releases cluster c of site s (freeCluster(1, 2)), the
// shorthand for getSite(1).freeCluster(2).
func (d *Domain) FreeCluster(s, c int) error {
	site, err := d.Site(s)
	if err != nil {
		return err
	}
	return site.FreeClusterAt(c)
}

// FreeSiteAt releases the i-th site (freeSite(1)).
func (d *Domain) FreeSiteAt(i int) error { return (*tree)(d).freeAt(i) }

// FreeSite releases a specific member site (freeSite(s1)).
func (d *Domain) FreeSite(s *Site) error { return (*tree)(d).freeMember((*tree)(s)) }

// Free releases the domain and everything in it (freeDomain).
func (d *Domain) Free() { (*tree)(d).free() }

// Freed reports whether the domain has been released.
func (d *Domain) Freed() bool { return (*tree)(d).isFreed() }

// Domain returns d itself, so every Component answers getDomain.
func (d *Domain) Domain() *Domain { return d }

// Topology flattens the domain into [site][cluster][]node-name for the
// NAS manager hierarchy.
func (d *Domain) Topology() [][][]string {
	mu.Lock()
	defer mu.Unlock()
	out := make([][][]string, len(d.members))
	for i, s := range d.members {
		out[i] = make([][]string, len(s.members))
		for j, c := range s.members {
			out[i][j] = c.appendNamesLocked(nil)
		}
	}
	return out
}

// SetAggKey records the aggregation key for an active JRS hierarchy.
func (d *Domain) SetAggKey(k string) { (*tree)(d).setAggKey(k) }

// AggKey returns the aggregation key ("" when not activated).
func (d *Domain) AggKey() string { return (*tree)(d).getAggKey() }
