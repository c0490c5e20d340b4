package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"procmine/internal/analysis/cfg"
	"procmine/internal/analysis/internal/syncops"
	"procmine/internal/graph"
)

// This file derives the module-wide lock-order facts from the call graph:
// which global lock classes each function may acquire (AllAcquires), how it
// reaches each acquisition (AcqWitness), and which ordered pairs "second
// acquired while first held" its body establishes (Pairs). Pairs from every
// function condense into one lock-order graph whose cycles are potential deadlocks: two goroutines entering the
// cycle from different classes can each hold what the other wants.
//
// A lock class is an identity coarser than the syncops instance key: all
// locks reachable as the same field of the same named type collapse into
// one class ("(procmine/internal/serve.shard).mu" covers every shard's mu).
// That is exactly the granularity deadlock ordering wants — two distinct
// shard instances locked by two goroutines in opposite order deadlock just
// as surely as one — at the cost of flagging self-consistent same-class
// nesting, which the same-class exclusion below leaves to lockheldblocking.
//
// Held regions reuse the lockheldblocking semantics: a region opens at a
// non-deferred, non-detached Lock/RLock and ends at the matching
// non-deferred unlock on the same instance key or at a call to a helper
// whose summary net-releases that key through its receiver; a deferred
// unlock does not end the region. Literal-attached, deferred, and detached
// acquisitions open no region (their execution point in this body's CFG is
// unknown or elsewhere), though attached literals still contribute their
// classes to AllAcquires.

// LockSite is one lock acquisition in a function's declaration body.
type LockSite struct {
	// Class is the global lock class (see LockClassOf), "" when the
	// receiver is not classable.
	Class string
	// Key is the syncops instance key identifying the receiver value
	// within this function, used to match the releasing unlock.
	Key string
	// Kind is syncops.Lock or syncops.RLock.
	Kind syncops.Kind
	// Call is the acquisition call expression.
	Call *ast.CallExpr
	// Pos locates the call; Position is its rendering.
	Pos      token.Pos
	Position token.Position
}

// LockPair records that Second was (or may be, through a callee) acquired
// while First was held.
type LockPair struct {
	First    string
	Second   string
	Witness  string
	Position token.Position
}

// LockEdge is one deduplicated lock-order graph edge with its best witness.
type LockEdge struct {
	First    string
	Second   string
	Witness  string
	Position token.Position
}

// LockCycle is one strongly connected component of the lock-order graph,
// represented by its shortest cycle through the lexicographically least
// class: Classes[i] is acquired before Classes[(i+1)%len] by Edges[i].
type LockCycle struct {
	Classes []string
	Edges   []LockEdge
}

// LockClassOf canonicalizes a mutex receiver expression into a global lock
// class. Field selections class by the named type owning the final field —
// "sh.mu" and "s.shards[i].mu" both become "(pkgpath.shard).mu" — and
// package-level variables class by their qualified name. Locals, indexed
// mutexes without a final field selection, and call-derived receivers are
// not classable.
func LockClassOf(info *types.Info, recv ast.Expr) (string, bool) {
	switch x := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		t := info.TypeOf(x.X)
		if t == nil {
			return "", false
		}
		t = types.Unalias(t)
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "", false
		}
		obj := named.Obj()
		if obj.Pkg() == nil {
			return "", false
		}
		return "(" + obj.Pkg().Path() + "." + obj.Name() + ")." + x.Sel.Name, true
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil {
			return "", false
		}
		// Only package-level variables have a module-wide identity.
		if v.Parent() != v.Pkg().Scope() {
			return "", false
		}
		return v.Pkg().Path() + "." + v.Name(), true
	case *ast.StarExpr:
		return LockClassOf(info, x.X)
	}
	return "", false
}

// CallReleases reports whether c's callee net-releases the mutex identified
// by heldKey through its receiver: the callee's summary lists a
// receiver-relative release path whose root, substituted with the call's
// receiver key, equals the held key.
func (g *Graph) CallReleases(c Call, heldKey string) bool {
	return summaryTouchesKey(g.SummaryOf(c).Releases, c.RecvKey, heldKey)
}

// CallAcquires is the acquisition-side counterpart of CallReleases.
func (g *Graph) CallAcquires(c Call, heldKey string) bool {
	return summaryTouchesKey(g.SummaryOf(c).Acquires, c.RecvKey, heldKey)
}

func summaryTouchesKey(paths []string, recvKey, heldKey string) bool {
	if recvKey == "" {
		return false
	}
	for _, p := range paths {
		if rest, ok := strings.CutPrefix(p, "recv"); ok && recvKey+rest == heldKey {
			return true
		}
	}
	return false
}

// computeLockOrder fills AllAcquires, AcqWitness, and Pairs for every
// function.
func (g *Graph) computeLockOrder() {
	// Phase 1: AllAcquires, a monotone fixpoint over the finite class set.
	// Detached calls belong to another goroutine's order; deferred calls
	// still execute within the caller's lifetime (a helper that defers an
	// acquisition does acquire), so only detachment excludes an edge here.
	for _, k := range g.Keys {
		fn := g.Functions[k]
		set := make(map[string]bool)
		for _, s := range fn.lockSites {
			if s.Class != "" {
				set[s.Class] = true
			}
		}
		for cls := range fn.litLockClasses {
			set[cls] = true
		}
		for _, c := range fn.Calls {
			if c.Detached {
				continue
			}
			if c.Kind == EdgeStatic && g.Functions[c.Callee] != nil {
				continue
			}
			for _, cls := range intrinsicEffect(c.Callee).AllAcquires {
				set[cls] = true
			}
		}
		fn.Summary.AllAcquires = sortedClassSet(set)
	}
	for changed := true; changed; {
		changed = false
		for _, k := range g.Keys {
			fn := g.Functions[k]
			var grown map[string]bool
			has := func(cls string) bool {
				if grown != nil && grown[cls] {
					return true
				}
				i := sort.SearchStrings(fn.Summary.AllAcquires, cls)
				return i < len(fn.Summary.AllAcquires) && fn.Summary.AllAcquires[i] == cls
			}
			for _, c := range fn.Calls {
				if c.Kind != EdgeStatic || c.Detached {
					continue
				}
				callee := g.Functions[c.Callee]
				if callee == nil {
					continue
				}
				for _, cls := range callee.Summary.AllAcquires {
					if !has(cls) {
						if grown == nil {
							grown = make(map[string]bool)
						}
						grown[cls] = true
					}
				}
			}
			if grown != nil {
				for _, cls := range fn.Summary.AllAcquires {
					grown[cls] = true
				}
				fn.Summary.AllAcquires = sortedClassSet(grown)
				changed = true
			}
		}
	}

	// Phase 2: acquisition witnesses, now that AllAcquires is final.
	for _, k := range g.Keys {
		fn := g.Functions[k]
		if len(fn.Summary.AllAcquires) == 0 {
			continue
		}
		m := make(map[string]string, len(fn.Summary.AllAcquires))
		for _, cls := range fn.Summary.AllAcquires {
			if w := g.acqWitness(fn, cls, map[string]bool{fn.Key: true}, 0); w != "" {
				m[cls] = w
			}
		}
		if len(m) > 0 {
			fn.Summary.AcqWitness = m
		}
	}

	// Phase 3: ordered pairs from each body's held regions.
	for _, k := range g.Keys {
		fn := g.Functions[k]
		if len(fn.lockSites) == 0 || fn.Decl == nil || fn.Decl.Body == nil {
			continue
		}
		g.pairsOf(fn)
	}
}

// acqWitness explains how fn reaches an acquisition of class: the first
// cause in source order, expanded through acyclic call chains like
// blockWitness.
func (g *Graph) acqWitness(fn *Function, class string, seen map[string]bool, depth int) string {
	const maxDepth = 6
	bestPos := -1
	witness := ""
	consider := func(pos int, w string) {
		if bestPos == -1 || pos < bestPos {
			bestPos = pos
			witness = w
		}
	}
	for _, s := range fn.lockSites {
		if s.Class == class {
			consider(int(s.Pos), "locks "+DisplayKey(class))
		}
	}
	for _, c := range fn.Calls {
		if c.Detached {
			continue
		}
		if !summaryHasClass(g.SummaryOf(c), class) {
			continue
		}
		w := "calls " + DisplayKey(c.Callee)
		if c.Kind == EdgeStatic && g.Functions[c.Callee] != nil {
			if depth < maxDepth && !seen[c.Callee] {
				seen[c.Callee] = true
				if sub := g.acqWitness(g.Functions[c.Callee], class, seen, depth+1); sub != "" {
					w += ", which " + sub
				}
			}
		} else if sub := intrinsicEffect(c.Callee).AcqWitness[class]; sub != "" {
			w += ", which " + sub
		}
		consider(int(c.Pos), w)
	}
	if witness == "" && fn.litLockClasses[class] {
		witness = "locks " + DisplayKey(class)
	}
	return witness
}

func summaryHasClass(s Summary, class string) bool {
	i := sort.SearchStrings(s.AllAcquires, class)
	return i < len(s.AllAcquires) && s.AllAcquires[i] == class
}

// pairsOf computes fn's ordered acquisition pairs with a CFG may-held
// analysis over its declaration body.
func (g *Graph) pairsOf(fn *Function) {
	cg := cfg.New(fn.Decl.Body)
	rec := make(map[*ast.CallExpr]Call, len(fn.Calls))
	for _, c := range fn.Calls {
		rec[c.Site] = c
	}

	type siteLoc struct {
		b    *cfg.Block
		i    int
		node ast.Node
		ok   bool
	}
	locs := make([]siteLoc, len(fn.lockSites))
	for i, s := range fn.lockSites {
		b, idx, found := cg.Find(s.Call)
		if !found || lockSkipNode(b.Nodes[idx]) {
			continue
		}
		locs[i] = siteLoc{b: b, i: idx, node: b.Nodes[idx], ok: true}
	}

	// heldAt returns the indices of classable lock sites whose region may
	// still be open when execution reaches targetNode.
	heldAt := func(targetNode ast.Node) []int {
		var held []int
		for i, s := range fn.lockSites {
			if !locs[i].ok || s.Class == "" || locs[i].node == targetNode {
				continue
			}
			target := func(n ast.Node) bool { return n == targetNode }
			if cg.MayReachWithout(locs[i].b, locs[i].i+1, target, g.releaseBarrier(fn, rec, s)) {
				held = append(held, i)
			}
		}
		return held
	}

	pairs := make(map[[2]string]LockPair)
	add := func(first, second, witness string, pos token.Position) {
		k := [2]string{first, second}
		p := LockPair{First: first, Second: second, Witness: witness, Position: pos}
		if old, ok := pairs[k]; !ok || pairLess(p, old) {
			pairs[k] = p
		}
	}

	// Local acquisitions under a held lock.
	for j, s2 := range fn.lockSites {
		if !locs[j].ok || s2.Class == "" {
			continue
		}
		for _, i := range heldAt(locs[j].node) {
			s1 := fn.lockSites[i]
			if s1.Class == s2.Class {
				continue // same-class nesting is lockheldblocking's domain
			}
			w := fmt.Sprintf("%s locks %s while holding %s",
				DisplayKey(fn.Key), DisplayKey(s2.Class), DisplayKey(s1.Class))
			add(s1.Class, s2.Class, w, s2.Position)
		}
	}

	// Calls under a held lock inherit the held set: everything the callee
	// may acquire pairs with every lock still held here.
	for _, c := range fn.Calls {
		if c.FromLit || c.Detached || c.Deferred {
			continue
		}
		acq := g.SummaryOf(c).AllAcquires
		if len(acq) == 0 {
			continue
		}
		tb, ti, found := cg.Find(c.Site)
		if !found || lockSkipNode(tb.Nodes[ti]) {
			continue
		}
		held := heldAt(tb.Nodes[ti])
		if len(held) == 0 {
			continue
		}
		cs := g.SummaryOf(c)
		for _, i := range held {
			s1 := fn.lockSites[i]
			// A helper that releases the held lock reorders nothing: by
			// its own summary the lock is dropped around whatever it
			// acquires.
			if g.CallReleases(c, s1.Key) {
				continue
			}
			for _, cls := range acq {
				if cls == s1.Class {
					continue
				}
				sub := cs.AcqWitness[cls]
				if sub == "" {
					sub = "acquires " + DisplayKey(cls)
				}
				w := fmt.Sprintf("%s holds %s and calls %s, which %s",
					DisplayKey(fn.Key), DisplayKey(s1.Class), DisplayKey(c.Callee), sub)
				add(s1.Class, cls, w, c.Position)
			}
		}
	}

	if len(pairs) == 0 {
		return
	}
	out := make([]LockPair, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].First != out[j].First {
			return out[i].First < out[j].First
		}
		return out[i].Second < out[j].Second
	})
	fn.Summary.Pairs = out
}

// releaseBarrier builds the region-ending predicate for a held site: a
// non-deferred matching unlock on the same instance key, or a call to a
// helper whose summary net-releases that key.
func (g *Graph) releaseBarrier(fn *Function, rec map[*ast.CallExpr]Call, s LockSite) func(ast.Node) bool {
	want := syncops.Unlock
	if s.Kind == syncops.RLock {
		want = syncops.RUnlock
	}
	return func(n ast.Node) bool {
		if _, ok := n.(*ast.DeferStmt); ok {
			return false
		}
		ends := false
		cfg.EachCall(n, func(call *ast.CallExpr) {
			if ends {
				return
			}
			if o, ok := syncops.Classify(fn.info, call); ok && o.Key == s.Key && o.Kind == want {
				ends = true
				return
			}
			if c, ok := rec[call]; ok && g.CallReleases(c, s.Key) {
				ends = true
			}
		})
		return ends
	}
}

// lockSkipNode: an acquisition or call inside a defer or go statement
// executes at another program point; it neither opens a region here nor
// sits inside one.
func lockSkipNode(n ast.Node) bool {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return true
	}
	return false
}

// LockOrderEdges condenses every function's pairs into a deduplicated,
// sorted edge list. Each edge keeps the
// best witness: least valid position, then least witness string.
func (g *Graph) LockOrderEdges() []LockEdge {
	best := make(map[[2]string]LockEdge)
	consider := func(p LockPair) {
		e := LockEdge{First: p.First, Second: p.Second, Witness: p.Witness, Position: p.Position}
		k := [2]string{p.First, p.Second}
		if old, ok := best[k]; !ok || edgeLess(e, old) {
			best[k] = e
		}
	}
	for _, k := range g.Keys {
		for _, p := range g.Functions[k].Summary.Pairs {
			consider(p)
		}
	}
	out := make([]LockEdge, 0, len(best))
	for _, e := range best {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].First != out[j].First {
			return out[i].First < out[j].First
		}
		return out[i].Second < out[j].Second
	})
	return out
}

// LockCycles detects the cycles of the lock-order graph: each strongly
// connected component of two or more classes yields one cycle, the
// shortest through its lexicographically least class (BFS with sorted
// neighbor expansion, so the representative is deterministic).
func (g *Graph) LockCycles() []LockCycle {
	edges := g.LockOrderEdges()
	if len(edges) == 0 {
		return nil
	}
	adj := make(map[string]map[string]LockEdge)
	dg := graph.New()
	for _, e := range edges {
		dg.AddVertex(e.First)
		dg.AddVertex(e.Second)
		dg.AddEdge(e.First, e.Second)
		if adj[e.First] == nil {
			adj[e.First] = make(map[string]LockEdge)
		}
		adj[e.First][e.Second] = e
	}
	var cycles []LockCycle
	for _, comp := range dg.SCCs() {
		if len(comp) < 2 {
			continue
		}
		sort.Strings(comp)
		in := make(map[string]bool, len(comp))
		for _, v := range comp {
			in[v] = true
		}
		path := shortestCycle(comp[0], adj, in)
		if len(path) < 2 {
			continue
		}
		c := LockCycle{Classes: path}
		for i := range path {
			c.Edges = append(c.Edges, adj[path[i]][path[(i+1)%len(path)]])
		}
		cycles = append(cycles, c)
	}
	sort.Slice(cycles, func(i, j int) bool {
		return strings.Join(cycles[i].Classes, "\x00") < strings.Join(cycles[j].Classes, "\x00")
	})
	return cycles
}

// shortestCycle finds the shortest path start -> ... -> start within the
// vertex set in, by BFS with sorted neighbor expansion.
func shortestCycle(start string, adj map[string]map[string]LockEdge, in map[string]bool) []string {
	parent := map[string]string{start: ""}
	queue := []string{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		next := make([]string, 0, len(adj[v]))
		for w := range adj[v] {
			if in[w] {
				next = append(next, w)
			}
		}
		sort.Strings(next)
		for _, w := range next {
			if w == start {
				// Close the cycle: reconstruct start -> ... -> v.
				var rev []string
				for u := v; u != ""; u = parent[u] {
					rev = append(rev, u)
				}
				path := make([]string, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					path = append(path, rev[i])
				}
				return path
			}
			if _, seen := parent[w]; !seen {
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}

// Anchor returns the cycle's canonical report position: the least edge
// position, so every run of the module-wide analysis lands the one
// finding per cycle on the same line.
func (c LockCycle) Anchor() token.Position {
	var best token.Position
	for i, e := range c.Edges {
		if i == 0 || posLess(e.Position, best) {
			best = e.Position
		}
	}
	return best
}

// CycleMessage renders the diagnostic for one cycle: the class loop
// followed by every edge's witness chain — for a two-lock ABBA that is
// exactly the A→B path and the B→A path.
func CycleMessage(c LockCycle) string {
	names := make([]string, 0, len(c.Classes)+1)
	for _, cls := range c.Classes {
		names = append(names, DisplayKey(cls))
	}
	names = append(names, DisplayKey(c.Classes[0]))
	var b strings.Builder
	fmt.Fprintf(&b, "potential deadlock: lock-order cycle %s", strings.Join(names, " -> "))
	for i, e := range c.Edges {
		if i == 0 {
			b.WriteString(": ")
		} else {
			b.WriteString("; but ")
		}
		b.WriteString(e.Witness)
	}
	b.WriteString("; establish a single canonical acquisition order for these locks")
	return b.String()
}

// pairLess orders pairs for best-witness selection: position, then
// witness text.
func pairLess(a, b LockPair) bool {
	if pa, pb := a.Position, b.Position; pa != pb {
		return posLess(pa, pb)
	}
	return a.Witness < b.Witness
}

func edgeLess(a, b LockEdge) bool {
	if a.Position != b.Position {
		return posLess(a.Position, b.Position)
	}
	return a.Witness < b.Witness
}

// posLess orders rendered positions by file, line, then column.
func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func sortedClassSet(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for cls := range set {
		out = append(out, cls)
	}
	sort.Strings(out)
	return out
}
