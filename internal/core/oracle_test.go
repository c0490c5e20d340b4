package core_test

// An independent reference implementation of the mining pipeline,
// transcribed from the paper: Algorithm 2 (General DAG), Algorithm 3
// (instance labeling and merge) and the Section 6 noise thresholds, plus the
// package's documented overlap-cancellation rule. It deliberately uses none
// of the production machinery — no columnar view, no pooled matrices, no
// parallelism, no SubsetReducer — only string-keyed maps, a per-execution
// InducedSubgraph(...).TransitiveReduction(), noise.ThresholdFor and
// LabelInstances / MergeInstances. Every production mining path must
// reproduce its graph exactly.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"procmine/internal/conformance"
	"procmine/internal/core"
	"procmine/internal/graph"
	"procmine/internal/noise"
	"procmine/internal/serve"
	"procmine/internal/synth"
	"procmine/internal/wlog"
)

// pair is an ordered activity pair; unordered pairs use a < b.
type pair struct{ a, b string }

func unordered(a, b string) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// referenceMine is MineContext as the paper states it: Algorithm 3 when some
// execution repeats an activity, Algorithm 2 otherwise.
func referenceMine(t testing.TB, l *wlog.Log, opt core.Options) *graph.Digraph {
	t.Helper()
	if !repeats(l) {
		return referenceAlgorithm2(t, l, opt)
	}
	labeled, err := core.LabelInstances(l)
	if err != nil {
		t.Fatalf("LabelInstances: %v", err)
	}
	return core.MergeInstances(referenceAlgorithm2(t, labeled, opt))
}

func repeats(l *wlog.Log) bool {
	for _, e := range l.Executions {
		seen := map[string]bool{}
		for _, s := range e.Steps {
			if seen[s.Activity] {
				return true
			}
			seen[s.Activity] = true
		}
	}
	return false
}

// referenceAlgorithm2 transcribes Algorithm 2 step by step.
func referenceAlgorithm2(t testing.TB, l *wlog.Log, opt core.Options) *graph.Digraph {
	t.Helper()
	// Step 2: per-execution support for "u terminates before v starts",
	// for overlapping instances, and for co-occurrence.
	activities := map[string]bool{}
	order := map[pair]int{}
	overlap := map[pair]int{}
	cooc := map[pair]int{}
	for _, exec := range l.Executions {
		present := map[string]bool{}
		seenOrder := map[pair]bool{}
		seenOverlap := map[pair]bool{}
		for i, si := range exec.Steps {
			present[si.Activity] = true
			for j, sj := range exec.Steps {
				if i == j || si.Activity == sj.Activity {
					continue
				}
				if si.End.Before(sj.Start) {
					seenOrder[pair{si.Activity, sj.Activity}] = true
				}
				if si.Start.Before(sj.End) && sj.Start.Before(si.End) {
					seenOverlap[unordered(si.Activity, sj.Activity)] = true
				}
			}
		}
		for p := range seenOrder {
			order[p]++
		}
		for p := range seenOverlap {
			overlap[p]++
		}
		for a := range present {
			activities[a] = true
			for b := range present {
				if a < b {
					cooc[pair{a, b}]++
				}
			}
		}
	}

	// Section 6: the global threshold T, or the per-pair balance rule over
	// the executions in which both activities appear.
	threshold := func(a, b string) int {
		if opt.AdaptiveEpsilon == 0 {
			return opt.MinSupport
		}
		tt, err := noise.ThresholdFor(cooc[unordered(a, b)], opt.AdaptiveEpsilon)
		if err != nil {
			t.Fatalf("ThresholdFor(%s, %s): %v", a, b, err)
		}
		return tt
	}

	// Steps 1-3: edges with enough support, minus 2-cycles, minus pairs
	// observed overlapping with enough support.
	edges := map[pair]bool{}
	for p, c := range order {
		if c >= threshold(p.a, p.b) {
			edges[p] = true
		}
	}
	for p := range edges {
		if edges[pair{p.b, p.a}] {
			delete(edges, p)
			delete(edges, pair{p.b, p.a})
		}
	}
	for p, c := range overlap {
		if c >= max(threshold(p.a, p.b), 1) {
			delete(edges, p)
			delete(edges, pair{p.b, p.a})
		}
	}

	// Step 4: an edge u->v lies inside a strongly connected component iff v
	// reaches u.
	succ := map[string][]string{}
	for p := range edges {
		succ[p.a] = append(succ[p.a], p.b)
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v == to {
				return true
			}
			for _, w := range succ[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return false
	}
	g := graph.New()
	for a := range activities {
		g.AddVertex(a)
	}
	for p := range edges {
		if !reaches(p.b, p.a) {
			g.AddEdge(p.a, p.b)
		}
	}

	// Steps 5-6: keep the edges of every execution's induced-subgraph
	// transitive reduction.
	marked := map[graph.Edge]bool{}
	for _, exec := range l.Executions {
		red, err := g.InducedSubgraph(exec.ActivitySet()).TransitiveReduction()
		if err != nil {
			t.Fatalf("reducing execution %s: %v", exec.ID, err)
		}
		for _, e := range red.Edges() {
			marked[e] = true
		}
	}
	for _, e := range g.Edges() {
		if !marked[e] {
			g.RemoveEdge(e.From, e.To)
		}
	}
	return g
}

// graphKey renders vertices and edges canonically.
func graphKey(g *graph.Digraph) string {
	var b strings.Builder
	vs := g.Vertices()
	sort.Strings(vs)
	fmt.Fprintf(&b, "V%v E", vs)
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	for _, e := range es {
		fmt.Fprintf(&b, " %s->%s", e.From, e.To)
	}
	return b.String()
}

// productionPaths mines l through every production path that must agree
// with the oracle, keyed by path name.
func productionPaths(t testing.TB, l *wlog.Log, opt core.Options, seed int64) map[string]*graph.Digraph {
	t.Helper()
	ctx := context.Background()
	out := map[string]*graph.Digraph{}
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		g, err := core.MineContext(ctx, l, opt)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatalf("MineContext at GOMAXPROCS %d: %v", procs, err)
		}
		out[fmt.Sprintf("MineContext/procs=%d", procs)] = g
	}
	g, _, err := core.MineWithDiagnosticsContext(ctx, l, opt)
	if err != nil {
		t.Fatalf("MineWithDiagnosticsContext: %v", err)
	}
	out["MineWithDiagnostics"] = g

	rng := rand.New(rand.NewSource(seed))
	shuffled := core.NewIncrementalMiner()
	for _, i := range rng.Perm(len(l.Executions)) {
		if err := shuffled.Add(l.Executions[i]); err != nil {
			t.Fatalf("IncrementalMiner.Add: %v", err)
		}
	}
	out["incremental/shuffled"] = mineIncremental(t, shuffled, opt)

	var buf bytes.Buffer
	if err := shuffled.Snapshot().Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	snap, err := core.DecodeMinerSnapshot(&buf)
	if err != nil {
		t.Fatalf("DecodeMinerSnapshot: %v", err)
	}
	restored := core.NewIncrementalMiner()
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	out["snapshot/roundtrip"] = mineIncremental(t, restored, opt)

	parts := make([]*core.IncrementalMiner, 3)
	for i := range parts {
		parts[i] = core.NewIncrementalMiner()
	}
	for i, e := range l.Executions {
		if err := parts[i%3].Add(e); err != nil {
			t.Fatalf("IncrementalMiner.Add: %v", err)
		}
	}
	merged := core.NewIncrementalMiner()
	for _, p := range parts {
		if err := merged.RestoreSnapshot(p.Snapshot()); err != nil {
			t.Fatalf("RestoreSnapshot: %v", err)
		}
	}
	out["snapshot/3-way-merge"] = mineIncremental(t, merged, opt)
	return out
}

func mineIncremental(t testing.TB, im *core.IncrementalMiner, opt core.Options) *graph.Digraph {
	t.Helper()
	g, err := im.MineContext(context.Background(), opt)
	if err != nil {
		t.Fatalf("IncrementalMiner.MineContext: %v", err)
	}
	return g
}

// TestReferenceOracleParity runs every production path against the oracle
// over the parity fixtures and a small threshold grid.
func TestReferenceOracleParity(t *testing.T) {
	for name, l := range core.ParityLogs(t) {
		for _, ms := range []int{0, 2} {
			for _, eps := range []float64{0, 0.1} {
				opt := core.Options{MinSupport: ms, AdaptiveEpsilon: eps}
				want := graphKey(referenceMine(t, l, opt))
				for path, g := range productionPaths(t, l, opt, int64(len(name)+ms)) {
					if got := graphKey(g); got != want {
						t.Errorf("%s/ms=%d/eps=%v: %s differs from the reference oracle\ngot:  %s\nwant: %s",
							name, ms, eps, path, got, want)
					}
				}
			}
		}
	}
}

// TestReferenceOracleConformal checks Definition 7 where the paper
// guarantees it: the oracle's graph for the clean acyclic fixture, mined
// without a noise threshold, is conformal.
func TestReferenceOracleConformal(t *testing.T) {
	l := core.ParityLogs(t)["clean"]
	g := referenceMine(t, l, core.Options{})
	if rep := conformance.Check(g, l, synth.StartActivity, synth.EndActivity, core.Options{}); !rep.Conformal() {
		t.Fatalf("oracle graph of the clean fixture is not conformal: %s", rep.Summary())
	}
}

// fuzzLog decodes a bounded log from fuzz bytes: at most 16 executions of
// at most 12 steps over at most 8 activities. Activities may repeat within
// an execution, and step intervals may overlap or touch.
func fuzzLog(data []byte) *wlog.Log {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	base := time.Unix(1_700_000_000, 0)
	l := &wlog.Log{}
	execs := next()%16 + 1
	for e := 0; e < execs; e++ {
		steps := next()%12 + 1
		exec := wlog.Execution{ID: fmt.Sprintf("f%d", e)}
		at := base
		for s := 0; s < steps; s++ {
			b := next()
			// Low bits pick the activity, high bits how far the start
			// advances (0 allows simultaneous starts); the next byte sets
			// the duration (0 is an instantaneous step).
			at = at.Add(time.Duration(b>>3%4) * time.Second)
			dur := time.Duration(next()%4) * time.Second
			exec.Steps = append(exec.Steps, wlog.Step{
				Activity: string(rune('A' + b%8)),
				Start:    at,
				End:      at.Add(dur),
			})
		}
		l.Executions = append(l.Executions, exec)
	}
	return l
}

// FuzzMine compares the oracle with MineContext and the IncrementalMiner on
// bounded fuzzed logs and option settings.
func FuzzMine(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 8, 1, 16, 1}, uint8(0), uint8(0))
	f.Add([]byte{3, 4, 0, 1, 1, 1, 2, 1, 1, 1, 3, 0, 2, 9, 2, 10, 2}, uint8(1), uint8(1))
	f.Add([]byte("a repeated, overlapping and noisy little log"), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, support, eps uint8) {
		l := fuzzLog(data)
		opt := core.Options{
			MinSupport:      int(support % 4),
			AdaptiveEpsilon: []float64{0, 0.1, 0.3}[eps%3],
		}
		want := graphKey(referenceMine(t, l, opt))
		batch, err := core.MineContext(context.Background(), l, opt)
		if err != nil {
			t.Fatalf("MineContext: %v", err)
		}
		if got := graphKey(batch); got != want {
			t.Errorf("MineContext differs from the reference oracle\ngot:  %s\nwant: %s", got, want)
		}
		im := core.NewIncrementalMiner()
		if err := im.AddLog(l); err != nil {
			t.Fatalf("AddLog: %v", err)
		}
		if got := graphKey(mineIncremental(t, im, opt)); got != want {
			t.Errorf("IncrementalMiner differs from the reference oracle\ngot:  %s\nwant: %s", got, want)
		}
	})
}

// shardOf routes a process-instance ID the way serve.Server does: an FNV-1a
// hash of the ID modulo the shard count.
func shardOf(pid string, shards int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(pid)) // writing to a hash never fails
	return int(h.Sum32() % uint32(shards))
}

// servedGraph fetches GET target from s and rebuilds the JSON model.
func servedGraph(t *testing.T, s *serve.Server, target string) (*graph.Digraph, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", target, rec.Code, rec.Body.String())
	}
	var resp struct {
		Executions int
		Activities []string
		Edges      []graph.Edge
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding %s: %v", target, err)
	}
	g := graph.New()
	for _, v := range resp.Activities {
		g.AddVertex(v)
	}
	for _, e := range resp.Edges {
		g.AddEdge(e.From, e.To)
	}
	return g, resp.Executions
}

// TestReferenceOracleServe is the service arm of the oracle: each parity
// fixture, ingested over HTTP into an in-process serve.Server at several
// shard counts, is served as the oracle graph for the default and the
// explicit all-shard scope. Each shard's /model equals a miner fed the
// executions the server routed to it, and those per-shard miners merged
// through AddFrom equal the oracle too.
func TestReferenceOracleServe(t *testing.T) {
	for name, l := range core.ParityLogs(t) {
		want := graphKey(referenceMine(t, l, core.Options{}))
		var body bytes.Buffer
		if err := wlog.WriteText(&body, l.Events()); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3, 4} {
			s, err := serve.New(serve.Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest?format=text", bytes.NewReader(body.Bytes())))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s/shards=%d: POST /ingest = %d: %s", name, shards, rec.Code, rec.Body.String())
			}
			for _, target := range []string{"/model?format=json", "/model?format=json&shard=all"} {
				g, execs := servedGraph(t, s, target)
				if got := graphKey(g); got != want || execs != len(l.Executions) {
					t.Errorf("%s/shards=%d: GET %s serves %d executions, %s\nwant %d executions, %s",
						name, shards, target, execs, got, len(l.Executions), want)
				}
			}

			parts := make([]*core.IncrementalMiner, shards)
			for i := range parts {
				parts[i] = core.NewIncrementalMiner()
			}
			for _, e := range l.Executions {
				if err := parts[shardOf(e.ID, shards)].Add(e); err != nil {
					t.Fatalf("IncrementalMiner.Add: %v", err)
				}
			}
			merged := core.NewIncrementalMiner()
			for i, p := range parts {
				g, execs := servedGraph(t, s, fmt.Sprintf("/model?format=json&shard=%d", i))
				if got, wantShard := graphKey(g), graphKey(mineIncremental(t, p, core.Options{})); got != wantShard || execs != p.Executions() {
					t.Errorf("%s/shards=%d: shard %d serves %d executions, %s\nwant %d executions, %s",
						name, shards, i, execs, got, p.Executions(), wantShard)
				}
				merged.AddFrom(p)
			}
			if got := graphKey(mineIncremental(t, merged, core.Options{})); got != want {
				t.Errorf("%s/shards=%d: merged shard miners differ from the reference oracle\ngot:  %s\nwant: %s",
					name, shards, got, want)
			}
		}
	}
}

// chainExecution is an execution running acts one after another.
func chainExecution(id string, acts ...string) wlog.Execution {
	e := wlog.Execution{ID: id}
	for i, a := range acts {
		e.Steps = append(e.Steps, wlog.Step{Activity: a, Start: time.Unix(0, int64(10*i+1)), End: time.Unix(0, int64(10*i+5))})
	}
	return e
}

// markCacheCounts scrapes s's /model mark-cache counters.
func markCacheCounts(t *testing.T, s *serve.Server) (hit, miss float64) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, `procmined_mark_cache_total{result="hit"} %g`, &v); err == nil {
			hit = v
		} else if _, err := fmt.Sscanf(line, `procmined_mark_cache_total{result="miss"} %g`, &v); err == nil {
			miss = v
		}
	}
	return hit, miss
}

// TestReferenceOracleServeSteps ingests in steps into serve.Server at
// several shard counts, with /model of every scope between them, so each
// scope's mark cache goes through its miss, extend and plain-hit paths.
// After every step each served graph equals the oracle over the executions
// ingested so far into that scope. Step "new sets" adds only sets whose
// orders were all observed before, so the all-shard dependency graph stays
// and must be served by extending the cached marks; its sets add marks
// the earlier ones did not. Steps "new activity" and "2-cycle" change the
// graph and must re-mark.
func TestReferenceOracleServeSteps(t *testing.T) {
	acts := []string{"a", "b", "c", "d", "e"}
	// subsets returns every ordered subset of acts of at least two
	// activities for which keep holds.
	subsets := func(keep func(set []string) bool) [][]string {
		var out [][]string
		for mask := 0; mask < 1<<len(acts); mask++ {
			var set []string
			for i, a := range acts {
				if mask&(1<<i) != 0 {
					set = append(set, a)
				}
			}
			if len(set) >= 2 && keep(set) {
				out = append(out, set)
			}
		}
		return out
	}
	hasC := func(set []string) bool { return slices.Contains(set, "c") }
	var base, fresh []wlog.Execution
	for i, set := range subsets(hasC) {
		base = append(base, chainExecution(fmt.Sprintf("base%02d", i), set...))
	}
	for i, set := range subsets(func(set []string) bool { return !hasC(set) }) {
		fresh = append(fresh, chainExecution(fmt.Sprintf("fresh%02d", i), set...))
	}
	var again []wlog.Execution
	for _, e := range base {
		e.ID += "_again"
		again = append(again, e)
	}
	steps := []struct {
		name  string
		execs []wlog.Execution
		hit   bool // the all-shard scope's first mine hits; else it misses
	}{
		{"base", base, false},
		{"new sets", fresh, true},
		{"new activity", []wlog.Execution{chainExecution("new0", "a", "b", "f"), chainExecution("new1", "c", "f")}, false},
		{"2-cycle", []wlog.Execution{chainExecution("rev0", "a", "c", "b", "e")}, false},
		{"repeats", again, true},
	}
	for _, shards := range []int{1, 3, 4} {
		s, err := serve.New(serve.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var ingested []wlog.Execution
		for _, st := range steps {
			var body bytes.Buffer
			if err := wlog.WriteText(&body, (&wlog.Log{Executions: st.execs}).Events()); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest?format=text", &body))
			if rec.Code != http.StatusOK {
				t.Fatalf("shards=%d %s: POST /ingest = %d: %s", shards, st.name, rec.Code, rec.Body.String())
			}
			ingested = append(ingested, st.execs...)

			hit, miss := markCacheCounts(t, s)
			for _, target := range []string{"/model?format=json", "/model?format=json&shard=all"} {
				want := graphKey(referenceMine(t, &wlog.Log{Executions: ingested}, core.Options{}))
				if g, execs := servedGraph(t, s, target); graphKey(g) != want || execs != len(ingested) {
					t.Errorf("shards=%d %s: GET %s serves %d executions, %s\nwant %d executions, %s",
						shards, st.name, target, execs, graphKey(g), len(ingested), want)
				}
			}
			// The second all-shard mine always hits.
			wantHit, wantMiss := 2.0, 0.0
			if !st.hit {
				wantHit, wantMiss = 1, 1
			}
			if h, m := markCacheCounts(t, s); h-hit != wantHit || m-miss != wantMiss {
				t.Errorf("shards=%d %s: all-shard mines took %v hits and %v misses, want %v and %v",
					shards, st.name, h-hit, m-miss, wantHit, wantMiss)
			}
			for i := 0; i < shards; i++ {
				var part []wlog.Execution
				for _, e := range ingested {
					if shardOf(e.ID, shards) == i {
						part = append(part, e)
					}
				}
				want := graphKey(referenceMine(t, &wlog.Log{Executions: part}, core.Options{}))
				if g, execs := servedGraph(t, s, fmt.Sprintf("/model?format=json&shard=%d", i)); graphKey(g) != want || execs != len(part) {
					t.Errorf("shards=%d %s: shard %d serves %d executions, %s\nwant %d executions, %s",
						shards, st.name, i, execs, graphKey(g), len(part), want)
				}
			}
		}
	}
}
