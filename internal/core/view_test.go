package core

import (
	"context"
	"maps"
	"math/rand"
	"testing"

	"procmine/internal/graph"
	"procmine/internal/synth"
	"procmine/internal/wlog"
)

// TestMarkUnion checks the fact the mark cache rests on: for a fixed
// dependency graph G, marking is a union over sets, marked(G, F₁ ∪ F₂) =
// marked(G, F₁) ∪ marked(G, F₂). Random DAGs and random set families are
// marked by the production pass, and each side is checked against per-set
// transitive reductions of induced subgraphs.
func TestMarkUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ctx := context.Background()
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(14)
		g := synth.RandomDAG(rng, n, 0.2+0.6*rng.Float64())
		labels := g.Vertices()
		family := func() (ids, off []int32) {
			off = []int32{0}
			for k := rng.Intn(8); k > 0; k-- {
				for i := range labels {
					if rng.Intn(3) > 0 {
						ids = append(ids, int32(i))
					}
				}
				off = append(off, int32(len(ids)))
			}
			return ids, off
		}
		reference := func(ids, off []int32) map[graph.Edge]bool {
			out := map[graph.Edge]bool{}
			for s := 0; s+1 < len(off); s++ {
				var set []string
				for _, id := range ids[off[s]:off[s+1]] {
					set = append(set, labels[id])
				}
				red, err := g.InducedSubgraph(set).TransitiveReduction()
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range red.Edges() {
					out[e] = true
				}
			}
			return out
		}
		mark := func(ids, off []int32) map[graph.Edge]bool {
			m, err := markRequired(ctx, g, labels, ids, off)
			if err != nil {
				t.Fatal(err)
			}
			if want := reference(ids, off); !maps.Equal(m, want) {
				t.Fatalf("trial %d: markRequired = %v, per-set reductions %v", trial, m, want)
			}
			return m
		}
		ids1, off1 := family()
		ids2, off2 := family()
		ids := append(append([]int32{}, ids1...), ids2...)
		off := append([]int32{}, off1...)
		for _, o := range off2[1:] {
			off = append(off, o+int32(len(ids1)))
		}
		union := maps.Clone(mark(ids1, off1))
		maps.Copy(union, mark(ids2, off2))
		if got := mark(ids, off); !maps.Equal(got, union) {
			t.Errorf("trial %d: marked(G, F1 ∪ F2) = %v, marked(G, F1) ∪ marked(G, F2) = %v", trial, got, union)
		}
	}
}

// viewLog is a random acyclic log with partial executions.
func viewLog(t *testing.T, seed int64, m int) *wlog.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sim, err := synth.NewSimulator(synth.RandomDAG(rng, 10, synth.PaperEdgeProb(10)), rng)
	if err != nil {
		t.Fatal(err)
	}
	return sim.GenerateLog("v_", m)
}

// addAll folds executions into im.
func addAll(t *testing.T, im *IncrementalMiner, execs []wlog.Execution) {
	t.Helper()
	for _, e := range execs {
		if err := im.Add(e); err != nil {
			t.Fatal(err)
		}
	}
}

// numSets is the number of distinct sets in im's arena.
func numSets(im *IncrementalMiner) int { return im.View().numSets() }

// TestMineViewsCache drives MineViews over two miners whose executions
// overlap through a miss, a hit that extends the marks, a hit with nothing
// appended, and a miss after the dependency graph changes. Every mine
// equals one miner fed both miners' executions, and each counts the sets
// it reduced: a miss reduces exactly the deduplicated family, not the sum
// of the two arenas, and a hit only what was appended.
func TestMineViewsCache(t *testing.T) {
	l := viewLog(t, 5, 90)
	ctx := context.Background()
	a, b := NewIncrementalMiner(), NewIncrementalMiner()
	addAll(t, a, l.Executions[:60])
	addAll(t, b, l.Executions[30:90])
	var cache MarkCache
	step := func(name string, wantHit bool, wantSets int) {
		t.Helper()
		got, stats, err := MineViews(ctx, []StateView{a.View(), b.View()}, &cache, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		all := NewIncrementalMiner()
		all.AddFrom(a)
		all.AddFrom(b)
		want, err := all.Mine(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: MineViews\n%s\nwant one miner's\n%s", name, got, want)
		}
		if stats.Hit != wantHit || stats.Sets != wantSets {
			t.Errorf("%s: stats %+v, want Hit %v, Sets %d", name, stats, wantHit, wantSets)
		}
	}

	union := NewIncrementalMiner()
	union.AddFrom(a)
	union.AddFrom(b)
	if numSets(union) >= numSets(a)+numSets(b) {
		t.Fatalf("fixture: the miners share no set (%d + %d sets, %d distinct)", numSets(a), numSets(b), numSets(union))
	}
	step("first mine", false, numSets(union))

	// Re-adding a's executions to b under new IDs observes no new order, so
	// G stays; b's arena grows by the sets it lacked.
	before := numSets(b)
	var again []wlog.Execution
	for _, e := range l.Executions[:30] {
		e.ID += "_again"
		again = append(again, e)
	}
	addAll(t, b, again)
	if numSets(b) == before {
		t.Fatal("fixture: re-added executions brought b no new set")
	}
	step("appended sets", true, numSets(b)-before)
	step("nothing appended", true, 0)

	// A new activity changes G: the marks are rebuilt from the union.
	addAll(t, a, []wlog.Execution{{ID: "new", Steps: append(l.Executions[0].Steps[:1:1], wlog.Step{
		Activity: "zz", Start: l.Executions[0].Steps[0].End.Add(1), End: l.Executions[0].Steps[0].End.Add(2),
	})}})
	union = NewIncrementalMiner()
	union.AddFrom(a)
	union.AddFrom(b)
	step("new activity", false, numSets(union))
}
