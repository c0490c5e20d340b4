// Package lockorder detects potential deadlocks from inconsistent lock
// acquisition order. The callgraph layer condenses every function's ordered
// acquisition pairs — lock B taken, directly or through any call chain,
// while lock A is held — into a module-wide lock-order graph over global
// lock classes; a cycle in that graph is a schedule where two goroutines
// each hold what the other wants. The sharded serve layer is the motivating
// surface: Server.mu, shard.mu, the breaker state, and the obs registry
// locks all nest across call chains that no single function shows in full.
//
// Each cycle is reported once, with one witness chain per edge: for the
// classic two-lock ABBA that is exactly the call path that takes A then B
// and the path that takes B then A. The fix the message asks for is a
// canonical acquisition order (or a lock split), never a baseline entry.
//
// Granularity caveats, both deliberate: classes collapse instances ("every
// shard's mu" is one class), so self-consistent cross-instance nesting of
// one class is out of scope here (lockheldblocking owns same-key
// reacquisition); and held regions open only at syntactic Lock/RLock sites,
// matching lockheldblocking's region semantics exactly — deferred unlocks
// keep a region open, releasing helpers and matching non-deferred unlocks
// close it.
package lockorder

import (
	"procmine/internal/analysis"
	"procmine/internal/analysis/callgraph"
)

// Analyzer returns the lockorder pass. It is module-level (RunModule): a
// cycle's edges can come from any two packages, so it runs once over the
// module graph and reports each cycle at its least edge position.
func Analyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:      "lockorder",
		Doc:       "detects lock-order cycles (potential ABBA deadlocks) across the module's call graph",
		RunModule: runModule,
	}
}

func runModule(facts any) []analysis.ModuleFinding {
	g, ok := facts.(*callgraph.Graph)
	if !ok || g == nil {
		return nil
	}
	var out []analysis.ModuleFinding
	for _, c := range g.LockCycles() {
		out = append(out, analysis.ModuleFinding{
			Pos:     c.Anchor(),
			Message: callgraph.CycleMessage(c),
		})
	}
	return out
}
