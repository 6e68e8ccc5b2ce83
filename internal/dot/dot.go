// Package dot provides a minimal builder for Graphviz DOT documents.
//
// The rest of the repository uses it to render data-flow diagrams (Fig. 1 of
// the paper) and labelled transition systems (Figs. 3 and 4) as text that can
// be piped straight into `dot -Tpng`. Only the small subset of the DOT
// language needed by those renderers is supported: directed graphs, node and
// edge attributes.
package dot

import (
	"sort"
	"strings"
)

// Graph is a directed DOT graph under construction. The zero value is not
// usable; create graphs with NewGraph.
type Graph struct {
	name      string
	graphAttr map[string]string
	nodeAttr  map[string]string
	edgeAttr  map[string]string
	nodes     []*node
	nodeIndex map[string]*node
	edges     []*edge
}

type node struct {
	id    string
	attrs map[string]string
}

type edge struct {
	from, to string
	attrs    map[string]string
}

// NewGraph creates an empty directed graph with the given name.
func NewGraph(name string) *Graph {
	return &Graph{
		name:      name,
		graphAttr: make(map[string]string),
		nodeAttr:  make(map[string]string),
		edgeAttr:  make(map[string]string),
		nodeIndex: make(map[string]*node),
	}
}

// SetGraphAttr sets a graph-level attribute such as "rankdir".
func (g *Graph) SetGraphAttr(key, value string) { g.graphAttr[key] = value }

// SetNodeDefault sets a default attribute applied to every node.
func (g *Graph) SetNodeDefault(key, value string) { g.nodeAttr[key] = value }

// SetEdgeDefault sets a default attribute applied to every edge.
func (g *Graph) SetEdgeDefault(key, value string) { g.edgeAttr[key] = value }

// AddNode adds (or updates) a node with the given identifier and attributes.
// Attribute maps are copied; callers may reuse the map afterwards.
func (g *Graph) AddNode(id string, attrs map[string]string) {
	if existing, ok := g.nodeIndex[id]; ok {
		for k, v := range attrs {
			existing.attrs[k] = v
		}
		return
	}
	n := &node{id: id, attrs: copyAttrs(attrs)}
	g.nodes = append(g.nodes, n)
	g.nodeIndex[id] = n
}

// HasNode reports whether a node with the identifier has been added.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.nodeIndex[id]
	return ok
}

// AddEdge adds a directed edge between two node identifiers. Nodes that have
// not been declared are created implicitly with no attributes.
func (g *Graph) AddEdge(from, to string, attrs map[string]string) {
	if !g.HasNode(from) {
		g.AddNode(from, nil)
	}
	if !g.HasNode(to) {
		g.AddNode(to, nil)
	}
	g.edges = append(g.edges, &edge{from: from, to: to, attrs: copyAttrs(attrs)})
}

// Render produces the DOT document as a string. The document is assembled
// with direct writes into one pre-sized strings.Builder — no fmt formatting
// and no intermediate attribute strings — because LTS renderings put every
// transition label of a model through this path.
func (g *Graph) Render() string {
	var b strings.Builder
	b.Grow(g.estimateSize())
	b.WriteString("digraph ")
	b.WriteString(quoteID(g.name))
	b.WriteString(" {\n")
	writeAttrLines(&b, g.graphAttr)
	if len(g.nodeAttr) > 0 {
		b.WriteString("  node ")
		writeAttrList(&b, g.nodeAttr)
		b.WriteString(";\n")
	}
	if len(g.edgeAttr) > 0 {
		b.WriteString("  edge ")
		writeAttrList(&b, g.edgeAttr)
		b.WriteString(";\n")
	}
	for _, n := range g.nodes {
		writeNode(&b, n)
	}
	for _, e := range g.edges {
		b.WriteString("  ")
		b.WriteString(quoteID(e.from))
		b.WriteString(" -> ")
		b.WriteString(quoteID(e.to))
		if len(e.attrs) > 0 {
			b.WriteString(" ")
			writeAttrList(&b, e.attrs)
		}
		b.WriteString(";\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// estimateSize guesses the rendered length so Render grows its builder once.
// Attribute values dominate (LTS node and edge labels), so they are counted
// exactly; structural syntax is padded per element.
func (g *Graph) estimateSize() int {
	const perAttr, perElem = 8, 16
	size := perElem + len(g.name)
	countAttrs := func(attrs map[string]string) {
		for k, v := range attrs {
			size += len(k) + len(v) + perAttr
		}
	}
	countAttrs(g.graphAttr)
	countAttrs(g.nodeAttr)
	countAttrs(g.edgeAttr)
	for _, n := range g.nodes {
		size += perElem + len(n.id)
		countAttrs(n.attrs)
	}
	for _, e := range g.edges {
		size += perElem + len(e.from) + len(e.to)
		countAttrs(e.attrs)
	}
	return size
}

func writeNode(b *strings.Builder, n *node) {
	b.WriteString("  ")
	b.WriteString(quoteID(n.id))
	if len(n.attrs) > 0 {
		b.WriteString(" ")
		writeAttrList(b, n.attrs)
	}
	b.WriteString(";\n")
}

func writeAttrLines(b *strings.Builder, attrs map[string]string) {
	for _, k := range sortedKeys(attrs) {
		b.WriteString("  ")
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(quote(attrs[k]))
		b.WriteString(";\n")
	}
}

func writeAttrList(b *strings.Builder, attrs map[string]string) {
	b.WriteString("[")
	for i, k := range sortedKeys(attrs) {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(quote(attrs[k]))
	}
	b.WriteString("]")
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func copyAttrs(attrs map[string]string) map[string]string {
	out := make(map[string]string, len(attrs))
	for k, v := range attrs {
		out[k] = v
	}
	return out
}

// quote renders a value as a quoted DOT string, escaping embedded quotes and
// newlines.
func quote(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return `"` + s + `"`
}

// quoteID quotes an identifier unless it is already a safe DOT ID.
func quoteID(s string) string {
	if s == "" {
		return `""`
	}
	safe := true
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9' && i > 0:
		default:
			safe = false
		}
		if !safe {
			break
		}
	}
	if safe {
		return s
	}
	return quote(s)
}
