package callgraph

import (
	"sort"

	"procmine/internal/graph"
)

// ComputeSummaries derives every Function's Summary by a bottom-up fixpoint
// over the static call edges. Strongly connected components are condensed
// first (reusing the deterministic SCC/topo machinery of internal/graph),
// then processed in reverse topological order; within one SCC the boolean
// facts iterate to a fixpoint, and the witness strings are built afterwards
// so recursive cycles cannot produce unbounded explanations.
//
// The conservative defaults keep unresolved and unknown callees harmless:
// an unresolved edge contributes nothing to any fact, an external edge
// contributes only what the intrinsics table asserts about it. Detached calls — go statements and the bodies of
// go-spawned literals — never contribute to MayBlock (the blocking happens
// on another goroutine) but do contribute to Allocates (the allocation
// still happens, and spawning in a loop is exactly the storm hotalloc
// hunts).
func (g *Graph) ComputeSummaries() {
	dg := graph.New()
	for _, k := range g.Keys {
		dg.AddVertex(k)
	}
	for _, k := range g.Keys {
		fn := g.Functions[k]
		for _, c := range fn.Calls {
			if c.Kind == EdgeStatic && g.Functions[c.Callee] != nil {
				dg.AddEdge(k, c.Callee)
			}
		}
	}

	sccs := dg.SCCs()
	compOf := make(map[string]int, len(g.Keys))
	for i, comp := range sccs {
		for _, v := range comp {
			compOf[v] = i
		}
	}

	// Condense and order components bottom-up (callees before callers).
	cond := graph.New()
	for i := range sccs {
		cond.AddVertex(compName(i))
	}
	for _, k := range g.Keys {
		for _, c := range g.Functions[k].Calls {
			if c.Kind != EdgeStatic || g.Functions[c.Callee] == nil {
				continue
			}
			if compOf[k] != compOf[c.Callee] {
				cond.AddEdge(compName(compOf[k]), compName(compOf[c.Callee]))
			}
		}
	}
	order, err := cond.TopoSort()
	if err != nil {
		// The condensation is a DAG by construction; an error means a bug
		// in SCCs(). Fall back to declaration order, which still converges
		// because each SCC iterates to fixpoint below — only more slowly.
		order = order[:0]
		for i := range sccs {
			order = append(order, compName(i))
		}
	}

	// Reverse topological order: process callees before callers.
	for i := len(order) - 1; i >= 0; i-- {
		comp := sccs[compIndex(order[i])]
		sort.Strings(comp)
		g.fixpoint(comp)
	}

	// Witnesses after the booleans are final, so cycles terminate.
	for _, k := range g.Keys {
		fn := g.Functions[k]
		if fn.Summary.MayBlock && fn.Summary.BlockWitness == "" {
			fn.Summary.BlockWitness = g.blockWitness(fn, map[string]bool{fn.Key: true}, 0)
		}
	}

	// Lock-order facts ride on the finished summaries (the held-set
	// analysis consults Releases of helper callees).
	g.computeLockOrder()
}

// fixpoint iterates one SCC's summaries until stable.
func (g *Graph) fixpoint(comp []string) {
	// Seed each member from its local facts.
	for _, k := range comp {
		fn := g.Functions[k]
		s := &fn.Summary
		if len(fn.blockOps) > 0 {
			s.MayBlock = true
		}
		for _, a := range fn.Allocs {
			s.Allocates = true
			if a.InLoop {
				s.AllocsInLoop = true
			}
		}
		// Net lock effect from local operations on receiver/param paths.
		var acq, rel []string
		for path, net := range fn.lockNet {
			switch {
			case net > 0:
				acq = append(acq, path)
			case net < 0:
				rel = append(rel, path)
			}
		}
		sort.Strings(acq)
		sort.Strings(rel)
		s.Acquires = acq
		s.Releases = rel
		// External/interface/named-type callees contribute through the
		// intrinsics table; these facts are stable, so fold them in once
		// here.
		for _, c := range fn.Calls {
			if c.Kind == EdgeStatic && g.Functions[c.Callee] != nil {
				continue
			}
			ext := intrinsicEffect(c.Callee)
			if ext.MayBlock && !c.Detached {
				s.MayBlock = true
			}
			if ext.Allocates {
				s.Allocates = true
				if c.InLoop || ext.AllocsInLoop {
					s.AllocsInLoop = true
				}
			}
		}
	}

	// Propagate over static edges until nothing changes. Callees outside
	// the SCC are already final; members feed each other, hence the loop.
	for changed := true; changed; {
		changed = false
		for _, k := range comp {
			fn := g.Functions[k]
			s := &fn.Summary
			for _, c := range fn.Calls {
				if c.Kind != EdgeStatic {
					continue
				}
				callee := g.Functions[c.Callee]
				if callee == nil {
					continue
				}
				cs := callee.Summary
				if cs.MayBlock && !c.Detached && !s.MayBlock {
					s.MayBlock = true
					changed = true
				}
				if cs.Allocates && !s.Allocates {
					s.Allocates = true
					changed = true
				}
				if cs.Allocates && c.InLoop && !s.AllocsInLoop {
					s.AllocsInLoop = true
					changed = true
				}
				if cs.AllocsInLoop && !s.AllocsInLoop {
					s.AllocsInLoop = true
					changed = true
				}
			}
		}
	}

	// PropagatesCtx is derived, not iterated: it depends only on MayBlock
	// of callees, which is final by now.
	for _, k := range comp {
		fn := g.Functions[k]
		s := &fn.Summary
		if !fn.TakesCtx {
			continue
		}
		s.PropagatesCtx = true
		for _, c := range fn.Calls {
			if c.Detached || c.FromLit {
				continue
			}
			if !g.CallMayBlock(c) {
				continue
			}
			if !c.PassesCtx {
				s.PropagatesCtx = false
				break
			}
		}
	}
}

// SummaryOf returns what is known about the callee of c: its computed
// summary for static calls, the intrinsics table otherwise. The zero Summary — no effect — is the answer for unknown
// callees, so passes built on it stay conservative.
func (g *Graph) SummaryOf(c Call) Summary {
	if c.Kind == EdgeStatic {
		if callee := g.Functions[c.Callee]; callee != nil {
			return callee.Summary
		}
	}
	return intrinsicEffect(c.Callee)
}

// CallMayBlock reports whether the callee of c can block the calling
// goroutine.
func (g *Graph) CallMayBlock(c Call) bool {
	return g.SummaryOf(c).MayBlock
}

// blockWitness explains why fn may block: the first local cause in source
// order, or the first blocking callee, expanded through the chain with a
// cycle guard and a depth cap.
func (g *Graph) blockWitness(fn *Function, seen map[string]bool, depth int) string {
	const maxDepth = 6
	var bestPos = -1
	witness := ""
	consider := func(pos int, w string) {
		if bestPos == -1 || pos < bestPos {
			bestPos = pos
			witness = w
		}
	}
	for _, op := range fn.blockOps {
		consider(int(op.pos), op.what)
	}
	for _, c := range fn.Calls {
		if c.Detached {
			continue
		}
		if c.Kind == EdgeStatic {
			callee := g.Functions[c.Callee]
			if callee == nil || !callee.Summary.MayBlock {
				continue
			}
			w := "calls " + DisplayKey(c.Callee)
			if depth < maxDepth && !seen[c.Callee] {
				seen[c.Callee] = true
				if sub := g.blockWitness(callee, seen, depth+1); sub != "" {
					w += ", which " + sub
				}
			}
			consider(int(c.Pos), w)
			continue
		}
		if intrinsicEffect(c.Callee).MayBlock {
			consider(int(c.Pos), "calls "+DisplayKey(c.Callee))
		}
	}
	return witness
}

// compName and compIndex map SCC slice indexes to condensation vertex
// labels and back. Zero-padding keeps the labels' lexical order equal to
// their numeric order, which TopoSort's deterministic tie-break relies on.
func compName(i int) string {
	const digits = 8
	buf := [digits]byte{'0', '0', '0', '0', '0', '0', '0', '0'}
	for p := digits - 1; i > 0 && p >= 0; p-- {
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[:])
}

func compIndex(name string) int {
	n := 0
	for i := 0; i < len(name); i++ {
		n = n*10 + int(name[i]-'0')
	}
	return n
}
