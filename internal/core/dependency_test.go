package core

import (
	"fmt"
	"reflect"
	"testing"

	"procmine/internal/graph"
	"procmine/internal/wlog"
)

// mustDependencies computes the dependency relation, failing the test on
// error (all fixtures here use valid options).
func mustDependencies(t *testing.T, l *wlog.Log, opt Options) *DependencyRelation {
	t.Helper()
	d, err := ComputeDependencies(l, opt)
	if err != nil {
		t.Fatalf("ComputeDependencies: %v", err)
	}
	return d
}

// mustFollowsGraph builds the followings graph, failing the test on error.
func mustFollowsGraph(t *testing.T, l *wlog.Log, opt Options) *graph.Digraph {
	t.Helper()
	g, err := FollowsGraph(l, opt)
	if err != nil {
		t.Fatalf("FollowsGraph: %v", err)
	}
	return g
}

// TestExample3Dependencies reproduces Example 3 of the paper.
func TestExample3Dependencies(t *testing.T) {
	l := wlog.LogFromStrings("ABCE", "ACDE", "ADBE")
	d := mustDependencies(t, l, Options{})

	if !d.Depends("A", "B") {
		t.Error("B should depend on A")
	}
	if d.Depends("B", "A") {
		t.Error("A should not depend on B")
	}
	// B follows D directly, and D follows B via C, so B and D independent.
	if !d.Follows("D", "B") {
		t.Error("B should follow D (direct)")
	}
	if !d.Follows("B", "D") {
		t.Error("D should follow B (via C)")
	}
	if !d.Independent("B", "D") {
		t.Error("B and D should be independent")
	}
}

// TestExample3Extended adds ADCE to the Example 3 log. The paper's headline
// claim holds: B now depends on D, because the direct C<->D orders cancel so
// D no longer follows B via C. (The paper's prose also says "C and D are now
// independent", but that is loose: by Definition 3's transitive clause C
// still follows D via B — D->B is a consistent direct following in ADBE and
// B->C in ABCE — so strictly C depends on D. We implement the definitions.)
func TestExample3Extended(t *testing.T) {
	l := wlog.LogFromStrings("ABCE", "ACDE", "ADBE", "ADCE")
	d := mustDependencies(t, l, Options{})

	// Direct C/D followings cancelled in both directions.
	fg := mustFollowsGraph(t, l, Options{})
	if fg.HasEdge("C", "D") || fg.HasEdge("D", "C") {
		t.Error("direct C<->D followings should have cancelled")
	}
	// ...but the transitive path D->B->C remains.
	if !d.Follows("D", "C") {
		t.Error("C should still follow D via B (Definition 3 transitivity)")
	}
	if !d.Depends("D", "B") {
		t.Error("B should depend on D after adding ADCE")
	}
	if d.Independent("B", "D") {
		t.Error("B and D should no longer be independent")
	}
}

func TestIndependentReflexive(t *testing.T) {
	l := wlog.LogFromStrings("AB")
	d := mustDependencies(t, l, Options{})
	if !d.Independent("A", "A") {
		t.Error("an activity must be independent of itself")
	}
	if !d.Depends("A", "B") {
		t.Error("B should depend on A in single-execution log")
	}
}

func TestNeverCooccurringAreIndependent(t *testing.T) {
	// B and C never appear together and have no connecting path, so they
	// neither follow each other: independent.
	l := wlog.LogFromStrings("AB", "AC")
	d := mustDependencies(t, l, Options{})
	if !d.Independent("B", "C") {
		t.Error("B and C should be independent (never co-occur)")
	}
	if !d.Depends("A", "B") || !d.Depends("A", "C") {
		t.Error("B and C should both depend on A")
	}
}

func TestFollowsIsTransitive(t *testing.T) {
	// B follows A in x1; C follows B in x2; so C follows A transitively
	// even though A and C never co-occur.
	l := wlog.LogFromStrings("AB", "BC")
	d := mustDependencies(t, l, Options{})
	if !d.Follows("A", "C") {
		t.Error("C should follow A via B (Definition 3 recursion)")
	}
	if !d.Depends("A", "C") {
		t.Error("C should depend on A")
	}
}

func TestOverlappingActivitiesDoNotFollow(t *testing.T) {
	// Two overlapping steps: neither terminates before the other starts,
	// so no following in either direction.
	base := wlog.FromString("x", "A")
	s := base.Steps[0]
	other := wlog.Step{
		Activity: "B",
		Start:    s.Start.Add((s.End.Sub(s.Start)) / 2), // starts mid-A
		End:      s.End.Add(s.End.Sub(s.Start)),
	}
	exec := wlog.Execution{ID: "x", Steps: []wlog.Step{s, other}}
	l := &wlog.Log{Executions: []wlog.Execution{exec}}
	d := mustDependencies(t, l, Options{})
	if d.Follows("A", "B") || d.Follows("B", "A") {
		t.Error("overlapping activities must not follow each other")
	}
	if !d.Independent("A", "B") {
		t.Error("overlapping activities must be independent")
	}
}

func TestOverlapCancelsOrderFromOtherExecutions(t *testing.T) {
	// Execution 1 observes A before B; execution 2 observes them
	// overlapping. Definition 3 requires the order in *each* execution, so
	// no following holds.
	e1 := wlog.FromString("e1", "AB")
	base := wlog.FromString("tmp", "A")
	s := base.Steps[0]
	e2 := wlog.Execution{ID: "e2", Steps: []wlog.Step{
		s,
		{Activity: "B", Start: s.Start.Add(s.End.Sub(s.Start) / 2), End: s.End.Add(s.End.Sub(s.Start))},
	}}
	l := &wlog.Log{Executions: []wlog.Execution{e1, e2}}

	g := mustFollowsGraph(t, l, Options{})
	if g.HasEdge("A", "B") || g.HasEdge("B", "A") {
		t.Fatal("overlap in e2 should cancel the A->B order from e1")
	}
	if oc := OverlapCounts(l); oc[edge("A", "B")] != 1 {
		t.Fatalf("OverlapCounts = %v, want A->B:1", oc)
	}
	// With MinSupport=2 the single overlap observation is below threshold
	// and the single order observation is too: no edges either way.
	g2 := mustFollowsGraph(t, l, Options{MinSupport: 2})
	if g2.NumEdges() != 0 {
		t.Fatalf("unexpected edges with MinSupport=2: %v", g2.Edges())
	}
}

func TestOverlapBelowThresholdIgnored(t *testing.T) {
	// Three ordered observations vs one overlap: with MinSupport=2 the
	// overlap is treated as noise and the ordering survives.
	base := wlog.FromString("tmp", "A")
	s := base.Steps[0]
	ov := wlog.Execution{ID: "ov", Steps: []wlog.Step{
		s,
		{Activity: "B", Start: s.Start.Add(s.End.Sub(s.Start) / 2), End: s.End.Add(s.End.Sub(s.Start))},
	}}
	l := &wlog.Log{Executions: []wlog.Execution{
		wlog.FromString("e1", "AB"), wlog.FromString("e2", "AB"), wlog.FromString("e3", "AB"), ov,
	}}
	g := mustFollowsGraph(t, l, Options{MinSupport: 2})
	if !g.HasEdge("A", "B") {
		t.Fatal("single sub-threshold overlap should not cancel a well-supported order")
	}
	plain := mustFollowsGraph(t, l, Options{})
	if plain.HasEdge("A", "B") {
		t.Fatal("without threshold the overlap must cancel the order")
	}
}

func TestDependencyGraphExample3(t *testing.T) {
	l := wlog.LogFromStrings("ABCE", "ACDE", "ADBE")
	d := mustDependencies(t, l, Options{})
	g := d.Graph()
	// SCC {B, C, D} edges removed; remaining dependencies:
	wantEdges := []string{"A->B", "A->C", "A->D", "A->E", "B->E", "C->E", "D->E"}
	var got []string
	for _, e := range g.Edges() {
		got = append(got, e.String())
	}
	if !reflect.DeepEqual(got, wantEdges) {
		t.Fatalf("dependency graph edges = %v, want %v", got, wantEdges)
	}
}

func TestFollowsCounts(t *testing.T) {
	l := wlog.LogFromStrings("ABC", "ACB")
	counts := FollowsCounts(l)
	check := func(from, to string, want int) {
		t.Helper()
		if got := counts[edge(from, to)]; got != want {
			t.Errorf("count(%s->%s) = %d, want %d", from, to, got, want)
		}
	}
	check("A", "B", 2)
	check("A", "C", 2)
	check("B", "C", 1)
	check("C", "B", 1)
	check("B", "A", 0)
}

func TestFollowsGraphThreshold(t *testing.T) {
	// B->C observed twice, C->B once. With MinSupport=2 the minority order
	// never enters the graph, so B->C survives 2-cycle removal.
	l := wlog.LogFromStrings("ABC", "ABC", "ACB")
	plain := mustFollowsGraph(t, l, Options{})
	if plain.HasEdge("B", "C") || plain.HasEdge("C", "B") {
		t.Error("without threshold, B<->C must cancel out")
	}
	thresholded := mustFollowsGraph(t, l, Options{MinSupport: 2})
	if !thresholded.HasEdge("B", "C") {
		t.Error("with MinSupport=2, B->C should survive")
	}
	if thresholded.HasEdge("C", "B") {
		t.Error("with MinSupport=2, C->B should be filtered")
	}
}

func TestFollowsGraphIncludesIsolatedActivities(t *testing.T) {
	// A single-activity execution contributes a vertex with no edges.
	l := wlog.LogFromStrings("A")
	g := mustFollowsGraph(t, l, Options{})
	if !g.HasVertex("A") {
		t.Fatal("vertex A missing from followings graph")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("unexpected edges: %v", g.Edges())
	}
}

// TestColumnarCountsMatchMapOracle is the scan-parity property: the
// columnar dense kernel (through the production scanCounts dispatcher) and
// the per-execution fold over interned IDs must each reproduce the map
// accumulator byte-for-byte on all three count families —
// order, overlap, co-occurrence — across fixtures with overlaps, repeats,
// and empty logs, and across a Table-1-style synthetic grid of graph and
// log sizes.
func TestColumnarCountsMatchMapOracle(t *testing.T) {
	base := wlog.FromString("tmp", "A")
	s := base.Steps[0]
	overlapExec := wlog.Execution{ID: "ov", Steps: []wlog.Step{
		s,
		{Activity: "B", Start: s.Start.Add(s.End.Sub(s.Start) / 2), End: s.End.Add(s.End.Sub(s.Start))},
	}}
	logs := map[string]*wlog.Log{
		"paper":    wlog.LogFromStrings("ABCE", "ACDE", "ADBE"),
		"cyclic":   wlog.LogFromStrings("ABDCE", "ABDCBCE", "ABCBDCE", "ADE"),
		"overlap":  {Executions: []wlog.Execution{wlog.FromString("e1", "AB"), overlapExec}},
		"overlaps": overlapLog(40),
		"empty":    {},
	}
	for _, n := range []int{5, 15, 40} {
		for _, m := range []int{10, 120} {
			logs[fmt.Sprintf("synth_n%d_m%d", n, m)] = scanLog(t, n, m)
		}
	}
	// Past denseAlphabetMax the production scan folds per execution.
	wide := &wlog.Log{}
	for i := 0; i <= denseAlphabetMax; i++ {
		wide.Executions = append(wide.Executions, wlog.FromSequence(fmt.Sprintf("w%d", i),
			fmt.Sprintf("a%04d", i), fmt.Sprintf("a%04d", (i*7+1)%(denseAlphabetMax+1)), "end"))
	}
	logs["wide"] = wide
	for name, l := range logs {
		m := followsCountsMap(l)
		for path, d := range map[string]pairCounts{"columnar": scanCounts(l), "fold": foldCounts(l)} {
			if !reflect.DeepEqual(d.order, m.order) {
				t.Fatalf("%s: order counts differ:\n%s %v\nmap      %v", name, path, d.order, m.order)
			}
			if !reflect.DeepEqual(d.overlap, m.overlap) {
				t.Fatalf("%s: overlap counts differ:\n%s %v\nmap      %v", name, path, d.overlap, m.overlap)
			}
			if !reflect.DeepEqual(d.cooc, m.cooc) {
				t.Fatalf("%s: cooc counts differ:\n%s %v\nmap      %v", name, path, d.cooc, m.cooc)
			}
		}
	}
}
