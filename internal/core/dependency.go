package core

import (
	"procmine/internal/graph"
	"procmine/internal/wlog"
)

// DependencyRelation is the followings/dependency semantics of Definitions
// 3-5, computed from a log. It answers Follows, Depends and Independent
// queries and can materialize the dependency graph of Definition 5.
type DependencyRelation struct {
	follows    *graph.Digraph // steps 1-3 graph; paths = followings
	closure    *graph.Digraph // transitive closure of follows
	depGraph   *graph.Digraph // steps 1-4 graph (intra-SCC edges removed)
	depClosure *graph.Digraph // transitive closure of depGraph
}

// ComputeDependencies evaluates Definitions 3-5 on the log. It fails with
// ErrInvalidEpsilon when opt carries an out-of-range AdaptiveEpsilon.
func ComputeDependencies(l *wlog.Log, opt Options) (*DependencyRelation, error) {
	f, err := FollowsGraph(l, opt)
	if err != nil {
		return nil, err
	}
	d := f.Clone()
	d.RemoveIntraSCCEdges()
	return &DependencyRelation{
		follows:    f,
		closure:    f.TransitiveClosure(),
		depGraph:   d,
		depClosure: d.TransitiveClosure(),
	}, nil
}

// Follows reports whether b follows a (Definition 3): there is a path of
// direct followings from a to b.
func (d *DependencyRelation) Follows(a, b string) bool {
	return d.closure.HasEdge(a, b)
}

// Depends reports whether b depends on a (Definition 4): b follows a but a
// does not follow b.
func (d *DependencyRelation) Depends(a, b string) bool {
	return d.closure.HasEdge(a, b) && !d.closure.HasEdge(b, a)
}

// Independent reports whether a and b are independent (Definition 4): they
// follow each other both ways, or neither way. Identical activities are
// trivially independent.
func (d *DependencyRelation) Independent(a, b string) bool {
	if a == b {
		return true
	}
	ab := d.closure.HasEdge(a, b)
	ba := d.closure.HasEdge(b, a)
	return ab == ba
}

// EffectiveDepends reports whether b depends on a under the algorithmic
// interpretation used by Algorithm 2 and Theorem 5: there is a path a->b in
// the steps 1-4 dependency graph, in which every edge inside a cluster of
// mutually-following activities has been removed.
//
// This differs from the literal Definition 4 (Depends) in one corner case:
// a following path that runs through the interior of such a cluster (e.g.
// B->C->D in Example 7, where {C, D, E} mutually follow) counts as a
// dependency literally but not effectively — the paper's own Figure 4 result
// drops it, so conformance checking uses the effective relation.
func (d *DependencyRelation) EffectiveDepends(a, b string) bool {
	return d.depClosure.HasEdge(a, b)
}

// EffectiveIndependent reports whether neither activity effectively depends
// on the other. The dependency graph is acyclic, so mutual effective
// dependency cannot occur.
func (d *DependencyRelation) EffectiveIndependent(a, b string) bool {
	return !d.depClosure.HasEdge(a, b) && !d.depClosure.HasEdge(b, a)
}

// Activities returns all activities in the relation, sorted.
func (d *DependencyRelation) Activities() []string { return d.follows.Vertices() }

// Graph materializes a dependency graph (Definition 5) by the paper's
// construction: the followings graph with all intra-SCC (mutual-following)
// edges removed — steps 1-4 of Algorithm 2. Note one corner case inherited
// from the paper: a dependency whose only witnessing path runs through the
// interior of an independence cluster (SCC) loses its path when the cluster's
// internal edges are removed; Depends remains the declarative truth.
func (d *DependencyRelation) Graph() *graph.Digraph {
	return d.depGraph.Clone()
}
