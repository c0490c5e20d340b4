package core

import (
	"procmine/internal/graph"
	"procmine/internal/wlog"
)

// pairCounts is the string-keyed form of the step-2 counts: per-execution
// support for ordered "u terminates before v starts" pairs, and for
// unordered (From < To) overlapping and co-occurring pairs.
type pairCounts struct {
	order   map[graph.Edge]int
	overlap map[graph.Edge]int
	cooc    map[graph.Edge]int
}

// labeledPairs converts a state's counts to the string-keyed form.
func labeledPairs(st *state) pairCounts {
	m := st.labeledCounts()
	return pairCounts{order: m[orderGroup], overlap: m[overlapGroup], cooc: m[coocGroup]}
}

// scanCounts is the production step-2 scan in the string-keyed form.
func scanCounts(l *wlog.Log) pairCounts {
	return labeledPairs(scanState(l, nil))
}

// foldCounts is the per-execution fold over the whole log in the
// string-keyed form.
func foldCounts(l *wlog.Log) pairCounts {
	st := &state{labels: l.Columnar().Labels()}
	st.foldLog(l)
	return labeledPairs(st)
}

// followsCountsMap is the hash-map accumulator the production scan is
// checked against: string-keyed maps, a per-execution seen set, and
// wlog.Step's own Before and Overlaps.
func followsCountsMap(l *wlog.Log) pairCounts {
	pc := pairCounts{
		order:   make(map[graph.Edge]int),
		overlap: make(map[graph.Edge]int),
		cooc:    make(map[graph.Edge]int),
	}
	for _, exec := range l.Executions {
		seenOrder := make(map[graph.Edge]bool)
		seenOverlap := make(map[graph.Edge]bool)
		acts := exec.ActivitySet()
		for i := 0; i < len(acts); i++ {
			for j := i + 1; j < len(acts); j++ {
				pc.cooc[graph.Edge{From: acts[i], To: acts[j]}]++
			}
		}
		steps := exec.Steps
		for i := range steps {
			for j := range steps {
				if i == j || steps[i].Activity == steps[j].Activity {
					continue
				}
				switch {
				case steps[i].Before(steps[j]):
					e := graph.Edge{From: steps[i].Activity, To: steps[j].Activity}
					if !seenOrder[e] {
						seenOrder[e] = true
						pc.order[e]++
					}
				case i < j && steps[i].Overlaps(steps[j]):
					e := graph.Edge{From: steps[i].Activity, To: steps[j].Activity}
					if e.From > e.To {
						e.From, e.To = e.To, e.From
					}
					if !seenOverlap[e] {
						seenOverlap[e] = true
						pc.overlap[e]++
					}
				}
			}
		}
	}
	return pc
}
