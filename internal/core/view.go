package core

import (
	"context"
	"slices"
	"sync"

	"procmine/internal/graph"
	"procmine/internal/obs"
)

// StateView is a read-only capture of an IncrementalMiner's state, taken
// under whatever serializes the miner's writes and mined after that is
// released: a private copy of the pair counts and the execution total, and
// the label and set arenas by slice header and length. The arenas are
// append-only — Add and AddFrom only write past their current length — so
// the captured prefixes stay valid and unchanged while the miner keeps
// folding executions.
type StateView struct {
	executions     int
	labels         []string
	pairs          []pairStat
	setIDs, setOff []int32
}

// View captures im's state for MineViews. It copies the pair counts and
// reads no activity set, so it runs in time proportional to the alphabet
// and the pairs, not to the sets.
func (im *IncrementalMiner) View() StateView {
	v := im.st.view(im.executions)
	v.pairs = slices.Clone(v.pairs)
	return v
}

// Executions returns the number of executions the view holds.
func (v StateView) Executions() int { return v.executions }

// view captures s's slices, capped at their lengths so that nothing
// appended through the view can reach the state's backing arrays.
func (s *state) view(executions int) StateView {
	return StateView{
		executions: executions,
		labels:     s.labels[:len(s.labels):len(s.labels)],
		pairs:      s.pairs[:len(s.pairs):len(s.pairs)],
		setIDs:     s.setIDs[:len(s.setIDs):len(s.setIDs)],
		setOff:     s.setOff[:len(s.setOff):len(s.setOff)],
	}
}

// numSets returns the number of distinct sets in the view's arena.
func (v StateView) numSets() int { return max(len(v.setOff)-1, 0) }

// sumViews returns the state whose labels and pair counts are those of the
// union of the views: alphabets union and counts add, as in AddFrom. It
// holds no sets. One view is returned as it is; for several, the labels
// are sorted, so the result does not depend on the order in which the
// views' miners first saw each activity.
func sumViews(views []StateView) *state {
	if len(views) == 1 {
		return &state{labels: views[0].labels, pairs: views[0].pairs}
	}
	var labels []string
	for _, v := range views {
		labels = append(labels, v.labels...)
	}
	slices.Sort(labels)
	st := &state{labels: slices.Compact(labels), ids: map[string]int32{}, pairIdx: map[uint64]int32{}}
	for id, label := range st.labels {
		st.ids[label] = int32(id)
	}
	for _, v := range views {
		// Sorted labels keep each pair's label-smaller ID first.
		remap := make([]int32, len(v.labels))
		for id, label := range v.labels {
			remap[id] = st.ids[label]
		}
		for _, p := range v.pairs {
			q := st.pair(remap[p.u], remap[p.v])
			for k, c := range p.n {
				q.n[k] += c
			}
		}
	}
	return st
}

// MarkStats reports how one mine's marking pass (Algorithm 2 step 5) used
// its MarkCache.
type MarkStats struct {
	// Hit reports that the dependency graph equalled the cached entry's,
	// so only the sets appended to each view since then were reduced.
	Hit bool
	// Sets is the number of activity sets reduced.
	Sets int
}

// MarkCache memoizes the marking pass for one fixed list of views mined
// again and again, such as one /model scope over the same shards. For a
// fixed dependency graph G, marking is a union over sets:
// marked(G, F₁ ∪ F₂) = marked(G, F₁) ∪ marked(G, F₂). So while G stays
// the same, a mine need only reduce the sets appended to each view's arena
// since the last one and OR them into the cached marks.
//
// The cache holds one entry: the exact G it was marked for (its vertex
// labels by dense index and its edges, compared exactly, never hashed),
// the marked bitset over G's dense index, and per view how many of that
// view's sets it covers. That is O(n²) bits plus one int per view, and no
// copy of any set. An entry is only correct for arenas that grow by
// appending: anything that rewrites an arena must drop the caches that
// cover it.
//
// The zero value is ready to use. A MarkCache is safe for concurrent
// mines; each swaps in a complete entry, so concurrent mines never see a
// half-updated one.
type MarkCache struct {
	mu    sync.Mutex
	entry *markEntry
}

// markEntry is one immutable state of a MarkCache: marked holds the marks
// of the graph with vertex labels labels (by dense index) and edges edges
// (bit u*n+v) over the first upto[i] sets of view i.
type markEntry struct {
	labels        []string
	edges, marked *graph.Bitset
	upto          []int
}

// load returns the current entry; a nil cache has none.
func (c *MarkCache) load() *markEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entry
}

// store replaces the entry; on a nil cache it does nothing.
func (c *MarkCache) store(e *markEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entry = e
}

// extends reports whether e marked g over a prefix of each arena whose
// lengths are ends.
func (e *markEntry) extends(g *graph.Digraph, edges *graph.Bitset, ends []int) bool {
	if e == nil || len(e.upto) != len(ends) || len(e.labels) != g.NumVertices() || !e.edges.Equal(edges) {
		return false
	}
	for i, label := range e.labels {
		if g.VertexLabel(i) != label {
			return false
		}
	}
	for i, end := range ends {
		if e.upto[i] > end {
			return false
		}
	}
	return true
}

// markViews performs step 5 over the union of the views' set arenas and
// returns the marks as bits u*n+v over g's dense index space. g is the
// pipeline's dependency graph, acyclic after intra-SCC removal.
//
// A hit — cache holds an entry for this exact g — reduces only the sets
// each view appended since the entry and ORs them into a copy of its marks.
// Otherwise one view's arena, already distinct, is marked as it is, and
// several views' arenas are first deduplicated into one transient arena,
// so a set held by several views is reduced once. Either way the marks
// replace the cache's entry; the caller only reads the returned bitset.
func markViews(ctx context.Context, g *graph.Digraph, views []StateView, cache *MarkCache) (*graph.Bitset, MarkStats, error) {
	sr, err := graph.NewSubsetReducer(g)
	if err != nil {
		return nil, MarkStats{}, err
	}
	n := sr.N()
	ends := make([]int, len(views))
	for i, v := range views {
		ends[i] = v.numSets()
	}
	var edges *graph.Bitset
	if cache != nil {
		edges = g.EdgeBits()
	}
	var stats MarkStats
	var marked *graph.Bitset
	if e := cache.load(); e.extends(g, edges, ends) {
		stats.Hit = true
		marked = e.marked.Copy()
		for i, v := range views {
			stats.Sets += ends[i] - e.upto[i]
			if err := markSets(ctx, sr, v.setIDs, v.setOff, denseIDs(g, v.labels), e.upto[i], ends[i], marked); err != nil {
				return nil, MarkStats{}, err
			}
		}
	} else {
		marked = graph.NewBitset(n * n)
		var setIDs, setOff, gid []int32
		if len(views) == 1 {
			setIDs, setOff, gid = views[0].setIDs, views[0].setOff, denseIDs(g, views[0].labels)
		} else {
			setIDs, setOff = distinctSets(g, views)
			gid = make([]int32, n)
			for i := range gid {
				gid[i] = int32(i)
			}
		}
		stats.Sets = max(len(setOff)-1, 0)
		if err := markSets(ctx, sr, setIDs, setOff, gid, 0, stats.Sets, marked); err != nil {
			return nil, MarkStats{}, err
		}
	}
	if cache != nil {
		labels := make([]string, n)
		for i := range labels {
			labels[i] = g.VertexLabel(i)
		}
		cache.store(&markEntry{labels: labels, edges: edges, marked: marked, upto: ends})
	}
	return marked, stats, nil
}

// distinctSets merges the views' set arenas, translated into g's dense
// index space, into one arena of distinct sets. Each view lists a set's
// members in label order, so equal sets translate to equal sequences
// whichever view holds them.
func distinctSets(g *graph.Digraph, views []StateView) (setIDs, setOff []int32) {
	tmp := state{sets: map[string]bool{}, setOff: []int32{0}}
	var set []int32
	for _, v := range views {
		gid := denseIDs(g, v.labels)
		for s := 0; s < v.numSets(); s++ {
			set = set[:0]
			for _, id := range v.setIDs[v.setOff[s]:v.setOff[s+1]] {
				if gid[id] >= 0 {
					set = append(set, gid[id])
				}
			}
			tmp.addSet(set)
		}
	}
	return tmp.setIDs, tmp.setOff
}

// MineViews mines the union of the views — several shards' miners mine
// exactly as one miner fed all their executions would — and is the one
// read-side entry point over captured state: Algorithm 2 steps 3-6 through
// mineCounts, with cache memoizing step 5 across calls (see MarkCache; nil
// disables it), then the instance merge of Algorithm 3. Stages assemble →
// scc → mark → merge go on tr, which may be nil. The views' arenas are
// read, never written, so they may be mined while their miners keep
// adding executions. Like IncrementalMiner.Mine it fails with
// ErrInvalidEpsilon on an out-of-range AdaptiveEpsilon and with
// ErrTooManyActivities past Options.MaxActivities.
func MineViews(ctx context.Context, views []StateView, cache *MarkCache, opt Options, tr *obs.Trace) (*graph.Digraph, MarkStats, error) {
	if err := opt.Validate(); err != nil {
		return nil, MarkStats{}, err
	}
	if len(views) == 0 {
		views = []StateView{{}}
	}
	g, stats, err := mineCounts(ctx, views, cache, opt, "assemble", tr, nil)
	if err != nil {
		return nil, MarkStats{}, err
	}
	sp := tr.Start("merge")
	g = MergeInstances(g)
	sp.End()
	return g, stats, nil
}
