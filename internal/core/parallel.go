package core

// Parallel step-2 scan. Executions are independent units of pair counting,
// so the columnar step arena is split into contiguous execution ranges,
// each accumulated by a private worker running the same followsCounts
// kernel into its own pooled dense matrices, and the per-shard counts are
// merged by element-wise integer addition (Counts.AddFrom). Addition over
// ints is commutative and exact, so the merged counts — and therefore
// every graph mined from them — are byte-identical to the sequential
// scan's result for any worker count. The oracle tests in parallel_test.go
// and the 20× serialization check in determinism_test.go gate this
// invariant.
//
// Dense shard merging is O(n²) int32 adds with no allocation; the merged
// matrices are converted into the mining state once, at the end.

import (
	"runtime"
	"strconv"
	"sync"

	"procmine/internal/obs"
	"procmine/internal/wlog"
)

// scanShardMin is the minimum number of executions per worker: below it the
// goroutine spawn and O(n²) merge overhead outweighs the scan itself, so
// small logs stay on the sequential path.
const scanShardMin = 32

// parallelDenseAlphabetMax bounds the alphabet for which the scan shards:
// the five n×n int32 accumulators cost ~20·n² bytes *per worker* (pooled,
// but resident while the pool is warm), so the dense budget that is
// acceptable once (denseAlphabetMax) is not acceptable multiplied by
// GOMAXPROCS. Larger alphabets scan sequentially: dense up to
// denseAlphabetMax, with the per-execution fold beyond.
const parallelDenseAlphabetMax = 1024

// scanWorkers picks the shard count for a log of m executions over an
// n-activity alphabet: GOMAXPROCS, capped so every shard holds at least
// scanShardMin executions, and 1 wherever sharding would not pay
// (single-CPU, small logs, or alphabets past parallelDenseAlphabetMax).
func scanWorkers(m, n int) int {
	workers := runtime.GOMAXPROCS(0)
	if max := m / scanShardMin; workers > max {
		workers = max
	}
	if workers < 2 || n > parallelDenseAlphabetMax {
		return 1
	}
	return workers
}

// shardBounds splits m executions into at most workers contiguous shards
// and returns the shard boundaries (len = shards+1, bounds[0] = 0,
// bounds[len-1] = m). Sizes differ by at most one: the remainder of
// m/workers is spread one execution at a time over the leading shards, so
// no shard, the last one included, degenerates. When
// workers comes from scanWorkers (workers ≤ m/scanShardMin), every shard
// therefore holds at least scanShardMin executions.
func shardBounds(m, workers int) []int {
	if workers > m {
		workers = m
	}
	if workers < 1 {
		workers = 1
	}
	bounds := make([]int, workers+1)
	base, rem := m/workers, m%workers
	for w := 0; w < workers; w++ {
		bounds[w+1] = bounds[w] + base
		if w < rem {
			bounds[w+1]++
		}
	}
	return bounds
}

// ScanWorkersUsed reports how many workers FollowsCountsParallel actually
// runs with for the given log and requested count: requests are clamped to
// the execution count, and anything below two workers — or any alphabet
// past parallelDenseAlphabetMax — runs the sequential kernel (reported as
// 1). The bench trajectory records this per ablation
// row so a degenerate row — one that silently fell back to the sequential
// scan — is distinguishable from a genuinely sharded measurement.
func ScanWorkersUsed(l *wlog.Log, workers int) int {
	col := l.Columnar()
	if m := col.NumExecutions(); workers > m {
		workers = m
	}
	if workers < 2 || col.Alphabet() > parallelDenseAlphabetMax {
		return 1
	}
	return workers
}

// scanShards runs the dense followsCounts kernel over shardBounds execution
// ranges on workers goroutines, each into a private pooled accumulator, and
// merges the shards by integer addition into the first one, which the
// caller owns (and must release). Callers guarantee workers >= 2 and an
// alphabet within parallelDenseAlphabetMax. A non-nil tr records one
// "scan/workerN" span per goroutine — the span bookkeeping lives in the
// worker closure, which is orchestration code, not the hot kernel itself.
func scanShards(col *wlog.Columnar, workers int, tr *obs.Trace) *wlog.Counts {
	bounds := shardBounds(col.NumExecutions(), workers)
	shards := make([]*wlog.Counts, len(bounds)-1)
	var wg sync.WaitGroup
	for w := range shards {
		shards[w] = col.AcquireCounts()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := tr.Start("scan/worker" + strconv.Itoa(w))
			followsCounts(col, shards[w], bounds[w], bounds[w+1])
			sp.End()
		}(w)
	}
	wg.Wait()
	out := shards[0]
	for _, s := range shards[1:] {
		out.AddFrom(s)
		col.ReleaseCounts(s)
	}
	return out
}
