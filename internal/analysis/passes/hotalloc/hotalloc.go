// Package hotalloc keeps the mining hot path allocation-free inside loops.
// A //procmine:hot doc-comment directive marks a root (the follows-relation
// scans, the Algorithm 2 marking loops); every function reachable from a
// root over static call edges is hot, and each of its in-loop allocation
// sites — composite literal, make, new, append — is a finding, as is an
// in-loop call to any callee that allocates. BASELINE.json accepts no
// sites, so any new in-loop allocation on the hot path fails the gate.
//
// The pass reports sites, not functions: a baseline entry keyed on
// (file, pass, message, count) then tracks exactly how many of each
// allocation form each file is allowed, and fixing one site shrinks the
// expected count, which the stale-baseline check turns into a prompt to
// regenerate.
package hotalloc

import (
	"fmt"

	"procmine/internal/analysis"
	"procmine/internal/analysis/callgraph"
)

// Analyzer returns the hotalloc pass. It is module-level (RunModule):
// whether a function is hot depends on //procmine:hot roots in its
// importers, so it runs once over the module graph.
func Analyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:      "hotalloc",
		Doc:       "forbids allocations inside loops of functions reachable from //procmine:hot roots",
		RunModule: runModule,
	}
}

// runModule reports every in-loop allocation site of a hot function, and
// every in-loop call from one to an allocating callee.
func runModule(facts any) []analysis.ModuleFinding {
	g, ok := facts.(*callgraph.Graph)
	if !ok || g == nil {
		return nil
	}
	hot := g.HotReachable()
	if len(hot) == 0 {
		return nil
	}
	var out []analysis.ModuleFinding
	for _, k := range g.Keys {
		if !hot[k] {
			continue
		}
		fn := g.Functions[k]
		for _, a := range fn.Allocs {
			if !a.InLoop {
				continue
			}
			out = append(out, analysis.ModuleFinding{Pos: a.Position, Message: fmt.Sprintf(
				"%s allocates in a loop on the //procmine:hot path; hoist it out of the loop or reuse a buffer",
				a.What)})
		}
		// An in-loop call to an allocating callee is an allocation per
		// iteration even when the callee's own sites are loop-free.
		// Hot-reachable callees report their own in-loop sites, so only
		// the call-side amplification is reported here.
		for _, c := range fn.Calls {
			if !c.InLoop || c.Kind != callgraph.EdgeStatic {
				continue
			}
			s := g.SummaryOf(c)
			if !s.Allocates || s.AllocsInLoop {
				continue
			}
			out = append(out, analysis.ModuleFinding{Pos: c.Position, Message: fmt.Sprintf(
				"call to %s allocates, and this call sits in a loop on the //procmine:hot path; hoist the allocation out or pass in a buffer",
				callgraph.DisplayKey(c.Callee))})
		}
	}
	return out
}
