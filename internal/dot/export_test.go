package dot

// Graph queries only the tests use.

// NodeCount returns the number of nodes added to the graph.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of edges added to the graph.
func (g *Graph) EdgeCount() int { return len(g.edges) }
