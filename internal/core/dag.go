package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"procmine/internal/graph"
	"procmine/internal/obs"
	"procmine/internal/wlog"
)

// MineSpecialDAG implements Algorithm 1 ("Special DAG"): given a log of
// executions of an acyclic process in which every activity appears in every
// execution exactly once, it computes the unique minimal conformal graph in
// O(n²m + n³) time:
//
//  1. accumulate an edge (u, v) for each pair with u terminating before v
//     starting in some execution (with optional noise threshold),
//  2. remove edges appearing in both directions,
//  3. take the transitive reduction.
//
// It returns ErrNotSpecialForm if the precondition fails and ErrCyclicFollows
// if the followings graph still has a cycle (possible only for logs that are
// not generated by a single DAG process, e.g. heavily corrupted logs).
func MineSpecialDAG(l *wlog.Log, opt Options) (*graph.Digraph, error) {
	return MineSpecialDAGContext(context.Background(), l, opt)
}

// MineGeneralDAG implements Algorithm 2 ("General DAG"): acyclic processes
// whose executions may omit activities. It computes a conformal graph in
// O(mn³) time:
//
//  1. accumulate pairwise-order edges (noise threshold applies),
//  2. remove 2-cycles,
//  3. remove all edges inside strongly connected components (mutually
//     following activities are independent),
//  4. for each execution, compute the transitive reduction of the induced
//     subgraph and mark its edges,
//  5. keep only marked edges.
//
// The result preserves every dependency, introduces no path between
// independent activities, and admits every execution in the log; edge
// minimality is heuristic (the paper's open problem).
func MineGeneralDAG(l *wlog.Log, opt Options) (*graph.Digraph, error) {
	return MineGeneralDAGContext(context.Background(), l, opt)
}

// mineCounts is the one implementation of Algorithm 2 steps 3-6, shared by
// the batch miners, MineWithDiagnostics and IncrementalMiner: threshold
// with 2-cycle and overlap cancellation (the stage named first), intra-SCC
// edge removal ("scc"), and the marking pass with removal of unmarked
// edges ("mark"). Stages go on tr and the funnel on diag; both may be nil.
// ctx is checked before each stage and per distinct set. The caller has
// checked opt and, against Options.MaxActivities, the alphabet.
func mineCounts(ctx context.Context, st *state, opt Options, first string, tr *obs.Trace, diag *Diagnostics) (*graph.Digraph, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := tr.Start(first)
	g, err := assembleFollowsGraph(st, opt, diag)
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = tr.Start("scc")
	if diag != nil {
		for _, c := range g.SCCs() {
			if len(c) > 1 {
				diag.SCCs = append(diag.SCCs, c)
			}
		}
	}
	intraSCC := g.RemoveIntraSCCEdges()
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sp = tr.Start("mark")
	marked, err := markRequired(ctx, g, st.labels, st.setIDs, st.setOff)
	if err != nil {
		return nil, err
	}
	// Step 6: remove the unmarked edges.
	unmarked := 0
	for _, e := range g.Edges() {
		if !marked[e] {
			g.RemoveEdge(e.From, e.To)
			unmarked++
		}
	}
	sp.End()
	if diag != nil {
		diag.IntraSCCRemoved = intraSCC
		diag.UnmarkedRemoved = unmarked
	}
	return g, nil
}

// markRequired performs step 5 of Algorithm 2: for every distinct activity
// set, the transitive reduction of the dependency graph's induced subgraph
// is the minimal edge set that keeps the graph consistent with the
// executions over that set; all such edges are marked. The sets come as an
// arena of indices into labels (see state), so the pass runs
// the markRequiredEdges kernel over ranges of it: the graph's topological
// order and dense adjacency are computed once (graph.SubsetReducer) and
// each worker sweeps its range with a private scratch into a private pair
// bitset, merged by OR at the end. ctx is checked before each reduction —
// the per-set O(n³) unit of work — so cancellation takes effect mid-pass on
// every worker independently.
func markRequired(ctx context.Context, g *graph.Digraph, labels []string, setIDs, setOff []int32) (map[graph.Edge]bool, error) {
	numSets := len(setOff) - 1
	if numSets <= 0 {
		return map[graph.Edge]bool{}, nil
	}
	sr, err := graph.NewSubsetReducer(g)
	if err != nil {
		// g has a cycle — possible only through the exported
		// MarkRequiredEdges, since the mining pipeline removes intra-SCC
		// edges first. Fall back to per-subgraph reductions, which fail on
		// exactly the sets whose induced subgraph is cyclic.
		return markRequiredCyclic(ctx, g, labels, setIDs, setOff)
	}
	// gid maps label indices into the graph's dense index space (-1 for
	// activities g does not contain), translating each distinct set once
	// per query without map lookups in the kernel.
	gid := make([]int32, len(labels))
	for id, label := range labels {
		if i, ok := g.VertexIndex(label); ok {
			gid[id] = int32(i)
		} else {
			gid[id] = -1
		}
	}
	n := sr.N()
	workers := runtime.GOMAXPROCS(0)
	if workers > numSets {
		workers = numSets
	}
	if workers <= 1 {
		sc := sr.NewMarkScratch()
		marked := graph.NewBitset(n * n)
		if err := markRequiredEdges(ctx, sr, setIDs, setOff, gid, 0, numSets, sc, marked); err != nil {
			return nil, err
		}
		return markedToEdges(g, marked), nil
	}
	bounds := shardBounds(numSets, workers)
	marks := make([]*graph.Bitset, len(bounds)-1)
	errs := make([]error, len(bounds)-1)
	var wg sync.WaitGroup
	for w := range marks {
		marks[w] = graph.NewBitset(n * n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := sr.NewMarkScratch()
			errs[w] = markRequiredEdges(ctx, sr, setIDs, setOff, gid, bounds[w], bounds[w+1], sc, marks[w])
		}(w)
	}
	//lint:ignore procmine/ctxleak every worker polls ctx per distinct set, so Wait returns within one reduction of cancellation
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	marked := marks[0]
	for _, mb := range marks[1:] {
		marked.Or(mb)
	}
	return markedToEdges(g, marked), nil
}

// markRequiredEdges is the step-5 marking kernel: for each distinct
// activity set in [lo, hi) of the arena it translates the set's label
// indices through gid into the reducer's dense index space and marks the
// transitive-reduction edges of the induced subgraph as bits u*n+v of
// marked. The translation writes into the scratch's preallocated Members
// buffer and the reduction itself (graph.SubsetReducer.MarkSubsetInto)
// reuses the scratch's descendant rows, so the kernel allocates nothing.
// ctx is polled once per set, the O(n³) unit of work, and its error is
// returned as-is.
//
//procmine:hot
func markRequiredEdges(ctx context.Context, sr *graph.SubsetReducer, setIDs, setOff, gid []int32, lo, hi int, sc *graph.MarkScratch, marked *graph.Bitset) error {
	mem := sc.Members[:cap(sc.Members)]
	for s := lo; s < hi; s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := 0
		for _, id := range setIDs[setOff[s]:setOff[s+1]] {
			if gi := gid[id]; gi >= 0 {
				mem[k] = int(gi)
				k++
			}
		}
		sr.MarkSubsetInto(mem[:k], sc, marked)
	}
	return nil
}

// markRequiredCyclic is the marking fallback for cyclic graphs reached via
// the exported MarkRequiredEdges: each distinct activity set reduces its
// induced subgraph from scratch, failing on exactly the sets whose induced
// subgraph is cyclic.
func markRequiredCyclic(ctx context.Context, g *graph.Digraph, labels []string, setIDs, setOff []int32) (map[graph.Edge]bool, error) {
	marked := make(map[graph.Edge]bool)
	var set []string
	for s := 0; s+1 < len(setOff); s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		set = set[:0]
		for _, id := range setIDs[setOff[s]:setOff[s+1]] {
			set = append(set, labels[id])
		}
		red, err := g.InducedSubgraph(set).TransitiveReduction()
		if err != nil {
			return nil, fmt.Errorf("core: reducing induced subgraph: %w", err)
		}
		for _, e := range red.Edges() {
			marked[e] = true
		}
	}
	return marked, nil
}

// markedToEdges converts a pair bitset over g's dense index space back to
// the labeled edge set step 6 consumes.
func markedToEdges(g *graph.Digraph, marked *graph.Bitset) map[graph.Edge]bool {
	n := g.NumVertices()
	out := make(map[graph.Edge]bool, marked.Count())
	for _, cell := range marked.Elements() {
		out[graph.Edge{From: g.VertexLabel(cell / n), To: g.VertexLabel(cell % n)}] = true
	}
	return out
}

// MarkRequiredEdges exposes the Algorithm 2 step-5 marking pass for
// alternative dependency-graph constructions (e.g. the heuristics baseline):
// it returns the set of edges of g needed by at least one execution's
// induced-subgraph transitive reduction.
func MarkRequiredEdges(g *graph.Digraph, l *wlog.Log) (map[graph.Edge]bool, error) {
	col := l.Columnar()
	setIDs, setOff := col.DistinctSets()
	return markRequired(context.Background(), g, col.Labels(), setIDs, setOff)
}
