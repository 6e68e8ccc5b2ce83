package dot

// Graph queries and the cluster builder only the tests use; Render draws
// whatever clusters a graph holds.

// NodeCount returns the number of nodes added to the graph.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of edges added to the graph.
func (g *Graph) EdgeCount() int { return len(g.edges) }

// AddCluster creates a subgraph cluster with the given name and display
// label, and returns it so nodes can be assigned to it.
func (g *Graph) AddCluster(name, label string) *Cluster {
	c := &Cluster{name: name, label: label, attrs: make(map[string]string)}
	g.clusters = append(g.clusters, c)
	return c
}

// SetAttr sets a cluster-level attribute such as "style".
func (c *Cluster) SetAttr(key, value string) { c.attrs[key] = value }

// AddNode assigns an existing (or future) node identifier to the cluster.
func (c *Cluster) AddNode(id string) { c.nodes = append(c.nodes, id) }
