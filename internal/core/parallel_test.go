package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"procmine/internal/synth"
	"procmine/internal/wlog"
)

// withGOMAXPROCS runs f with the given GOMAXPROCS, restoring the old value.
// Tests in this package do not use t.Parallel, so the temporary bump cannot
// leak into a concurrently running test.
func withGOMAXPROCS(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// scanLog generates a deterministic Table-1-style synthetic log.
func scanLog(t testing.TB, n, m int) *wlog.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)*100003 + int64(m)))
	g := synth.RandomDAG(rng, n, synth.PaperEdgeProb(n))
	sim, err := synth.NewSimulator(g, rng)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	return sim.GenerateLog("scan_", m)
}

// overlapLog builds a log whose executions contain overlapping steps, so the
// overlap counts are exercised alongside order and co-occurrence.
func overlapLog(m int) *wlog.Log {
	base := wlog.FromString("tmp", "AC")
	a, c := base.Steps[0], base.Steps[1]
	b := wlog.Step{
		Activity: "B",
		Start:    a.Start.Add(a.End.Sub(a.Start) / 2),
		End:      a.End.Add(a.End.Sub(a.Start)),
	}
	l := &wlog.Log{}
	for i := 0; i < m; i++ {
		l.Executions = append(l.Executions, wlog.Execution{
			ID: "ov" + itoa(i), Steps: []wlog.Step{a, b, c},
		})
	}
	return l
}

// parallelCounts runs the dense sharded scan at a forced worker count and
// converts the merged matrices, mirroring the production parallel path.
func parallelCounts(l *wlog.Log, workers int) pairCounts {
	col := l.Columnar()
	cs := scanShards(col, workers, nil)
	st := &state{labels: col.Labels()}
	st.addDense(cs)
	col.ReleaseCounts(cs)
	return labeledPairs(st)
}

func TestScanWorkersGates(t *testing.T) {
	withGOMAXPROCS(8, func() {
		cases := []struct {
			m, n, want int
		}{
			{m: 10, n: 10, want: 1},    // too few executions to shard
			{m: 640, n: 10, want: 8},   // full GOMAXPROCS fan-out
			{m: 100, n: 10, want: 3},   // capped by scanShardMin per shard
			{m: 640, n: 1500, want: 1}, // dense-memory gap: sequential dense
			{m: 640, n: 3000, want: 1}, // past denseAlphabetMax: sequential map
			{m: 63, n: 10, want: 1},    // one full shard is not sharding
			{m: 64, n: 10, want: 2},    // exactly two shards
		}
		for _, c := range cases {
			if got := scanWorkers(c.m, c.n); got != c.want {
				t.Errorf("scanWorkers(m=%d, n=%d) = %d, want %d", c.m, c.n, got, c.want)
			}
		}
	})
	withGOMAXPROCS(1, func() {
		if got := scanWorkers(10000, 10); got != 1 {
			t.Errorf("scanWorkers on 1 proc = %d, want 1", got)
		}
	})
}

// TestShardBounds pins the shard splitter: boundaries cover [0, m] exactly,
// sizes differ by at most one, and — for worker counts scanWorkers can pick
// — no shard falls below scanShardMin (the degenerate last shard the old
// proportional split allowed).
func TestShardBounds(t *testing.T) {
	for _, c := range []struct{ m, workers int }{
		{0, 4}, {1, 4}, {7, 3}, {64, 2}, {65, 2}, {96, 3}, {100, 3},
		{127, 8}, {1000, 8}, {13, 13}, {13, 40},
	} {
		bounds := shardBounds(c.m, c.workers)
		if bounds[0] != 0 || bounds[len(bounds)-1] != c.m {
			t.Fatalf("shardBounds(%d, %d) = %v: does not cover [0, %d]", c.m, c.workers, bounds, c.m)
		}
		minSize, maxSize := c.m+1, 0
		for w := 0; w+1 < len(bounds); w++ {
			size := bounds[w+1] - bounds[w]
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
		}
		if len(bounds) > 2 && maxSize-minSize > 1 {
			t.Errorf("shardBounds(%d, %d) = %v: shard sizes differ by %d",
				c.m, c.workers, bounds, maxSize-minSize)
		}
	}
	// Every worker count scanWorkers can return keeps shards >= scanShardMin.
	for m := scanShardMin; m < 40*scanShardMin; m += 7 {
		for workers := 2; workers <= m/scanShardMin; workers++ {
			bounds := shardBounds(m, workers)
			for w := 0; w+1 < len(bounds); w++ {
				if size := bounds[w+1] - bounds[w]; size < scanShardMin {
					t.Fatalf("shardBounds(%d, %d): shard %d has %d < scanShardMin executions",
						m, workers, w, size)
				}
			}
		}
	}
}

// TestFollowsCountsParallelMatchesOracle checks the sharded scan against the
// hash-map oracle for all three count families across worker counts.
func TestFollowsCountsParallelMatchesOracle(t *testing.T) {
	logs := map[string]*wlog.Log{
		"synthetic": scanLog(t, 20, 300),
		"overlaps":  overlapLog(160),
		"mixed": {Executions: append(
			scanLog(t, 10, 100).Executions,
			overlapLog(100).Executions...)},
	}
	for name, l := range logs {
		oracle := followsCountsMap(l)
		for _, workers := range []int{2, 3, 5, 8} {
			got := parallelCounts(l, workers)
			if !reflect.DeepEqual(got.order, oracle.order) {
				t.Fatalf("%s/w=%d: order counts differ from oracle", name, workers)
			}
			if !reflect.DeepEqual(got.overlap, oracle.overlap) {
				t.Fatalf("%s/w=%d: overlap counts differ from oracle", name, workers)
			}
			if !reflect.DeepEqual(got.cooc, oracle.cooc) {
				t.Fatalf("%s/w=%d: cooc counts differ from oracle", name, workers)
			}
		}
	}
}

// TestFollowsCountsParallelDeterministic re-runs the sharded scan and
// requires identical results every time (the merge is pure integer
// summation into dense cells, so there is nothing schedule-dependent to
// observe), exercising the count-matrix pool across repeated acquisitions.
func TestFollowsCountsParallelDeterministic(t *testing.T) {
	l := scanLog(t, 15, 256)
	first := parallelCounts(l, 4)
	for i := 0; i < 20; i++ {
		again := parallelCounts(l, 4)
		if !reflect.DeepEqual(again.order, first.order) ||
			!reflect.DeepEqual(again.overlap, first.overlap) ||
			!reflect.DeepEqual(again.cooc, first.cooc) {
			t.Fatalf("run %d: parallel scan not deterministic", i)
		}
	}
}

// TestFollowsCountsParallelPublicAPI pins the exported ablation helpers:
// any worker count (including degenerate ones) must reproduce the
// sequential counts exactly.
func TestFollowsCountsParallelPublicAPI(t *testing.T) {
	l := scanLog(t, 12, 150)
	seq := FollowsCountsSequential(l)
	if oracle := FollowsCountsMap(l); !reflect.DeepEqual(seq, oracle) {
		t.Fatal("sequential production scan differs from map oracle")
	}
	for _, workers := range []int{0, 1, 2, 7, 10000} {
		if got := FollowsCountsParallel(l, workers); !reflect.DeepEqual(got, seq) {
			t.Fatalf("FollowsCountsParallel(workers=%d) differs from sequential", workers)
		}
	}
}

// TestFollowsCountsAutoParallelMatchesSequential drives the production
// dispatcher (scanCounts) through the sharded path by bumping GOMAXPROCS
// and checks the end-to-end counts are unchanged.
func TestFollowsCountsAutoParallelMatchesSequential(t *testing.T) {
	l := scanLog(t, 20, 512)
	var seq, par pairCounts
	withGOMAXPROCS(1, func() { seq = scanCounts(l) })
	withGOMAXPROCS(4, func() {
		if w := scanWorkers(len(l.Executions), len(l.Activities())); w < 2 {
			t.Fatalf("fixture does not trigger the parallel path (workers=%d)", w)
		}
		par = scanCounts(l)
	})
	if !reflect.DeepEqual(seq.order, par.order) ||
		!reflect.DeepEqual(seq.overlap, par.overlap) ||
		!reflect.DeepEqual(seq.cooc, par.cooc) {
		t.Fatal("auto-dispatched parallel scan differs from sequential scan")
	}
}

// TestMineGeneralDAGParallelSchedulesMatch mines the same log under 1 and 4
// procs (covering both the sharded scan and the parallel marking pass, which
// the race detector then observes) and requires byte-identical graphs.
func TestMineGeneralDAGParallelSchedulesMatch(t *testing.T) {
	l := scanLog(t, 20, 512)
	mine := func() string {
		g, err := MineGeneralDAG(l, Options{})
		if err != nil {
			t.Fatalf("MineGeneralDAG: %v", err)
		}
		var b strings.Builder
		if err := g.WriteAdjacency(&b); err != nil {
			t.Fatalf("WriteAdjacency: %v", err)
		}
		return b.String()
	}
	var s1, s4 string
	withGOMAXPROCS(1, func() { s1 = mine() })
	withGOMAXPROCS(4, func() { s4 = mine() })
	if s1 != s4 {
		t.Fatalf("parallel mine differs from sequential mine:\nseq:\n%s\npar:\n%s", s1, s4)
	}
}
