package core

import (
	"procmine/internal/graph"
	"procmine/internal/wlog"
)

// EdgeSupport summarizes the evidence behind one mined edge.
type EdgeSupport struct {
	// Ordered is the number of executions in which the source terminated
	// before the target started.
	Ordered int
	// CoOccur is the number of executions containing both activities.
	CoOccur int
}

// Confidence is Ordered/CoOccur — the fraction of co-occurrences that
// respect the edge direction (1.0 for a noise-free dependency).
func (s EdgeSupport) Confidence() float64 {
	if s.CoOccur == 0 {
		return 0
	}
	return float64(s.Ordered) / float64(s.CoOccur)
}

// Support computes the evidence for every edge of a mined graph from the
// log it was mined from, for display and auditing ("why is this edge
// here?"). Works for graphs from any of the three algorithms; for cyclic
// graphs counts are on raw (unlabeled) activities, so a loop edge B->C
// reports the executions where some B instance preceded some C instance.
func Support(l *wlog.Log, g *graph.Digraph) map[graph.Edge]EdgeSupport {
	counts := scanState(l, nil).labeledCounts()
	out := make(map[graph.Edge]EdgeSupport, g.NumEdges())
	for _, e := range g.Edges() {
		key := e
		if key.From > key.To {
			key.From, key.To = key.To, key.From
		}
		out[e] = EdgeSupport{
			Ordered: counts[orderGroup][e],
			CoOccur: counts[coocGroup][key],
		}
	}
	return out
}
