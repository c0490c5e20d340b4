// Package graph provides the directed-graph substrate used throughout
// procmine: a labeled digraph with topological ordering, strongly connected
// components, transitive closure and reduction, induced subgraphs, and
// comparison utilities. It implements Algorithm 4 ("TR") from the appendix of
// Agrawal, Gunopulos & Leymann (EDBT 1998) as its transitive-reduction
// primitive for DAGs.
//
// Vertices are identified by string labels (activity names). Internally each
// label maps to a dense integer index so that set operations run on bitsets.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a directed edge between two labeled vertices.
type Edge struct {
	From, To string
}

// String returns the edge in "From->To" form.
func (e Edge) String() string { return e.From + "->" + e.To }

// Digraph is a mutable directed graph over string-labeled vertices.
// The zero value is not ready to use; create one with New.
type Digraph struct {
	index map[string]int // label -> dense index
	label []string       // dense index -> label
	succ  []map[int]bool // adjacency: succ[u][v] == true iff edge u->v
	pred  []map[int]bool // reverse adjacency
	edges int
}

// New returns an empty digraph.
func New() *Digraph {
	return &Digraph{index: make(map[string]int)}
}

// NewFromEdges builds a digraph containing exactly the given edges (and their
// endpoint vertices).
func NewFromEdges(edges ...Edge) *Digraph {
	g := New()
	for _, e := range edges {
		g.AddEdge(e.From, e.To)
	}
	return g
}

// NumVertices returns the number of vertices.
func (g *Digraph) NumVertices() int { return len(g.label) }

// NumEdges returns the number of edges.
func (g *Digraph) NumEdges() int { return g.edges }

// HasVertex reports whether the vertex labeled v exists.
func (g *Digraph) HasVertex(v string) bool {
	_, ok := g.index[v]
	return ok
}

// AddVertex ensures a vertex labeled v exists and returns its dense index.
func (g *Digraph) AddVertex(v string) int {
	if i, ok := g.index[v]; ok {
		return i
	}
	i := len(g.label)
	g.index[v] = i
	g.label = append(g.label, v)
	g.succ = append(g.succ, make(map[int]bool))
	g.pred = append(g.pred, make(map[int]bool))
	return i
}

// AddEdge inserts the edge from->to, creating missing vertices. Self-loops
// are permitted (they arise transiently in cyclic mining); duplicate edges
// are idempotent. It reports whether the edge was newly added.
func (g *Digraph) AddEdge(from, to string) bool {
	u := g.AddVertex(from)
	v := g.AddVertex(to)
	if g.succ[u][v] {
		return false
	}
	g.succ[u][v] = true
	g.pred[v][u] = true
	g.edges++
	return true
}

// RemoveEdge deletes the edge from->to if present and reports whether it was.
func (g *Digraph) RemoveEdge(from, to string) bool {
	u, ok := g.index[from]
	if !ok {
		return false
	}
	v, ok := g.index[to]
	if !ok {
		return false
	}
	if !g.succ[u][v] {
		return false
	}
	delete(g.succ[u], v)
	delete(g.pred[v], u)
	g.edges--
	return true
}

// HasEdge reports whether the edge from->to exists.
func (g *Digraph) HasEdge(from, to string) bool {
	u, ok := g.index[from]
	if !ok {
		return false
	}
	v, ok := g.index[to]
	if !ok {
		return false
	}
	return g.succ[u][v]
}

// VertexIndex returns the dense index of the vertex labeled v and whether
// it exists. Dense indices are assigned by AddVertex in insertion order and
// are stable for the life of the graph; they address the index space used
// by SubsetReducer.MarkSubsetInto.
func (g *Digraph) VertexIndex(v string) (int, bool) {
	i, ok := g.index[v]
	return i, ok
}

// VertexLabel returns the label of the vertex at dense index i, or "" when
// i is out of range. It is the inverse of VertexIndex.
func (g *Digraph) VertexLabel(i int) string {
	if i < 0 || i >= len(g.label) {
		return ""
	}
	return g.label[i]
}

// Vertices returns all vertex labels in sorted order.
func (g *Digraph) Vertices() []string {
	out := make([]string, len(g.label))
	copy(out, g.label)
	sort.Strings(out)
	return out
}

// Edges returns all edges sorted by (From, To).
func (g *Digraph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u, m := range g.succ {
		for v := range m {
			out = append(out, Edge{g.label[u], g.label[v]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// EdgeBits returns the edges as a bitset over the dense index space: bit
// u*n+v is set iff the edge from vertex u to vertex v exists, for n
// vertices. Two graphs with the same labels at the same dense indices are
// equal iff their EdgeBits are.
func (g *Digraph) EdgeBits() *Bitset {
	n := len(g.label)
	b := NewBitset(n * n)
	for u, m := range g.succ {
		for v := range m {
			b.Set(u*n + v)
		}
	}
	return b
}

// Successors returns the labels of vertices directly reachable from v,
// sorted. It returns nil if v does not exist.
func (g *Digraph) Successors(v string) []string {
	u, ok := g.index[v]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(g.succ[u]))
	for w := range g.succ[u] {
		out = append(out, g.label[w])
	}
	sort.Strings(out)
	return out
}

// Predecessors returns the labels of vertices with a direct edge into v,
// sorted. It returns nil if v does not exist.
func (g *Digraph) Predecessors(v string) []string {
	u, ok := g.index[v]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(g.pred[u]))
	for w := range g.pred[u] {
		out = append(out, g.label[w])
	}
	sort.Strings(out)
	return out
}

// OutDegree returns the number of outgoing edges of v (0 if absent).
func (g *Digraph) OutDegree(v string) int {
	if u, ok := g.index[v]; ok {
		return len(g.succ[u])
	}
	return 0
}

// InDegree returns the number of incoming edges of v (0 if absent).
func (g *Digraph) InDegree(v string) int {
	if u, ok := g.index[v]; ok {
		return len(g.pred[u])
	}
	return 0
}

// Sources returns the vertices with no incoming edges, sorted.
func (g *Digraph) Sources() []string {
	var out []string
	for u := range g.label {
		if len(g.pred[u]) == 0 {
			out = append(out, g.label[u])
		}
	}
	sort.Strings(out)
	return out
}

// Sinks returns the vertices with no outgoing edges, sorted.
func (g *Digraph) Sinks() []string {
	var out []string
	for u := range g.label {
		if len(g.succ[u]) == 0 {
			out = append(out, g.label[u])
		}
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	ng := New()
	for _, v := range g.label {
		ng.AddVertex(v)
	}
	for u, m := range g.succ {
		for v := range m {
			ng.AddEdge(g.label[u], g.label[v])
		}
	}
	return ng
}

// InducedSubgraph returns the subgraph induced by the given vertex labels:
// those vertices plus every edge of g whose endpoints are both retained.
// Labels not present in g are ignored.
func (g *Digraph) InducedSubgraph(vertices []string) *Digraph {
	keep := make(map[int]bool, len(vertices))
	ng := New()
	for _, v := range vertices {
		if i, ok := g.index[v]; ok {
			keep[i] = true
			ng.AddVertex(v)
		}
	}
	for u := range keep {
		for v := range g.succ[u] {
			if keep[v] {
				ng.AddEdge(g.label[u], g.label[v])
			}
		}
	}
	return ng
}

// Reverse returns a new graph with every edge direction flipped.
func (g *Digraph) Reverse() *Digraph {
	ng := New()
	for _, v := range g.label {
		ng.AddVertex(v)
	}
	for u, m := range g.succ {
		for v := range m {
			ng.AddEdge(g.label[v], g.label[u])
		}
	}
	return ng
}

// String renders the graph as "V={...} E={...}" with sorted members, which is
// stable and convenient for tests and debugging.
func (g *Digraph) String() string {
	vs := g.Vertices()
	es := g.Edges()
	s := "V={"
	for i, v := range vs {
		if i > 0 {
			s += ","
		}
		s += v
	}
	s += "} E={"
	for i, e := range es {
		if i > 0 {
			s += ","
		}
		s += e.String()
	}
	return s + "}"
}

// indexOf returns the dense index for label v, or an error if absent.
func (g *Digraph) indexOf(v string) (int, error) {
	i, ok := g.index[v]
	if !ok {
		return 0, fmt.Errorf("graph: unknown vertex %q", v)
	}
	return i, nil
}
