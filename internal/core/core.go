// Package core implements the process-mining algorithms of Agrawal,
// Gunopulos & Leymann, "Mining Process Models from Workflow Logs"
// (EDBT 1998):
//
//   - Algorithm 1 (MineSpecialDAG): acyclic processes whose executions each
//     contain every activity exactly once. One pass, minimal conformal graph.
//   - Algorithm 2 (MineGeneralDAG): acyclic processes with partial
//     executions. Two passes plus a per-execution edge-marking heuristic.
//   - Algorithm 3 (MineCyclic): general directed graphs; repeated activity
//     instances are labeled apart, mined with Algorithm 2, and merged back.
//
// All three accept a noise threshold (Section 6): pairwise-order edges
// observed in fewer executions than the threshold are discarded before
// 2-cycle removal.
//
// The package also exposes the followings/dependency relations of
// Definitions 3-5, which the conformance checker uses as the declarative
// reference semantics.
package core

import (
	"errors"
	"fmt"
	"math"

	"procmine/internal/graph"
	"procmine/internal/noise"
	"procmine/internal/obs"
	"procmine/internal/wlog"
)

// Options configures the mining algorithms.
type Options struct {
	// MinSupport is the noise threshold T of Section 6: an ordered pair
	// (u, v) observed in fewer than MinSupport executions is not added to
	// the followings graph. Values <= 1 keep every observed pair.
	MinSupport int

	// AdaptiveEpsilon, when in (0, 0.5), replaces the global MinSupport
	// with a per-pair threshold derived from the pair's co-occurrence
	// count: T(u,v) = c(u,v)·ln2 / ln(2/ε), the Section 6 balance rule
	// applied to the executions in which u and v actually both appear.
	//
	// The paper's analysis assumes every pair co-occurs in all m
	// executions; with partial executions a global T = T(m, ε) filters
	// genuinely dependent pairs that simply co-occur rarely (see the
	// robustness experiment). The adaptive rule is this package's
	// extension for that case. When set, MinSupport is ignored.
	AdaptiveEpsilon float64

	// MaxActivities caps the activity alphabet (the paper's n, or kn for
	// the labeled log of Algorithm 3). Mining a log with more activities
	// fails with ErrTooManyActivities instead of allocating the O(n²)
	// accumulators. 0 = unlimited.
	MaxActivities int

	// MaxInstanceLabels caps Algorithm 3's k: the number of times a single
	// activity may repeat within one execution before instance labeling.
	// Exceeding it fails with ErrTooManyInstances. 0 = unlimited.
	MaxInstanceLabels int
}

// ErrInvalidEpsilon is returned by the Mine* entry points when
// Options.AdaptiveEpsilon is set outside the paper's standing assumption
// 0 < ε < 1/2. Before this check the invalid value silently degraded to the
// global MinSupport path, so a typo like ε = 5 (instead of 0.05) would
// quietly keep every observed pair.
var ErrInvalidEpsilon = errors.New("core: AdaptiveEpsilon must be in (0, 0.5)")

// Validate checks the option invariants shared by every mining entry point.
// It currently rejects exactly one misconfiguration: a non-zero
// AdaptiveEpsilon outside (0, 0.5), for which the Section 6 balance rule is
// undefined. The zero value (adaptive thresholding disabled) is always
// valid.
func (o Options) Validate() error {
	if o.AdaptiveEpsilon == 0 {
		return nil
	}
	if math.IsNaN(o.AdaptiveEpsilon) || o.AdaptiveEpsilon <= 0 || o.AdaptiveEpsilon >= 0.5 {
		return fmt.Errorf("%w: got %v", ErrInvalidEpsilon, o.AdaptiveEpsilon)
	}
	return nil
}

// adaptiveEnabled reports whether the per-pair Section 6 threshold is
// active. Callers must have validated the options first, so a non-zero
// epsilon is always in range here.
func (o Options) adaptiveEnabled() bool {
	return o.AdaptiveEpsilon > 0 && o.AdaptiveEpsilon < 0.5
}

// ErrNotSpecialForm is returned by MineSpecialDAG when the log violates the
// algorithm's precondition that every activity appears in every execution
// exactly once.
var ErrNotSpecialForm = errors.New("core: log is not in special form (every activity once per execution)")

// ErrCyclicFollows is returned by MineSpecialDAG when the followings graph
// still contains a cycle after 2-cycle removal, which cannot happen for a
// well-formed special-form log and indicates the log needs MineGeneralDAG
// or MineCyclic.
var ErrCyclicFollows = errors.New("core: followings graph is cyclic; use MineGeneralDAG or MineCyclic")

// pairCounts is the result of the step-2 log scan: per-execution support
// counts for ordered "u terminates before v starts" pairs, and for unordered
// overlapping pairs (which witness independence directly, per Section 2:
// "if there are two activities in the log that overlap in time, then they
// must be independent activities").
type pairCounts struct {
	order   map[graph.Edge]int // ordered pair support
	overlap map[graph.Edge]int // unordered (From < To) overlap support
	cooc    map[graph.Edge]int // unordered (From < To) co-occurrence count
}

// denseAlphabetMax bounds the activity alphabet for which the dense n×n
// accumulator is used; beyond it the n² int32 matrices (~20·n² bytes in
// total) stop being worth their memory and the map path takes over. The
// ablation benchmark measures the dense path several times faster on the
// Table 1 workloads, where the O(len²·m) pair scan dominates mining.
const denseAlphabetMax = 2048

// scanCounts runs the step-2 scan (shared by every algorithm): the
// columnar followsCounts kernel over pooled dense matrices for alphabets
// up to denseAlphabetMax — sharded across scanWorkers goroutines when the
// log is large enough — and the sequential map accumulator beyond. The
// dense counts are converted to the pairCounts map form exactly once, at
// the end, so every downstream consumer (threshold rules, diagnostics,
// Support) reads one representation regardless of the path taken.
func scanCounts(l *wlog.Log) pairCounts {
	return scanCountsTraced(l, nil)
}

// scanCountsTraced is scanCounts with per-worker stage spans recorded on tr
// (nil disables tracing at zero cost — the trace plumbing lives entirely in
// orchestration code, never in the hot kernel).
func scanCountsTraced(l *wlog.Log, tr *obs.Trace) pairCounts {
	col := l.Columnar()
	n := col.Alphabet()
	if n > denseAlphabetMax {
		return followsCountsMap(l)
	}
	m := col.NumExecutions()
	var cs *wlog.Counts
	if w := scanWorkers(m, n); w > 1 {
		cs = scanShards(col, w, tr)
	} else {
		sp := tr.Start("scan/worker0")
		cs = col.AcquireCounts()
		followsCounts(col, cs, 0, m)
		sp.End()
	}
	pc := countsToPairs(col, cs)
	col.ReleaseCounts(cs)
	return pc
}

// followsCounts is the step-2 scan kernel: it accumulates, for every
// ordered activity pair (u, v), the number of executions in [lo, hi) in
// which some instance of u terminates before some instance of v starts,
// plus the number of executions in which instances of the two activities
// overlap in time, and their per-pair co-occurrence counts — all into the
// dense matrices of cs, keyed by interner ID.
//
// The kernel is the dominant O(len²·m) cost on the Table 1 workloads, so
// it runs as pure index arithmetic over the columnar arenas: activity IDs
// and (sec, nsec) instants are flat columns, per-execution dedup uses the
// generation-marked seen matrices (no clearing), and co-occurrence reads
// the prededuplicated distinct-set arena. It allocates nothing; parallel
// shards run it over disjoint execution ranges into private pooled
// matrices (see parallel.go) and merge by integer addition, so the merged
// result is byte-identical to a sequential scan — the oracle and
// determinism tests gate this.
//
// The (sec, nsec) comparisons reproduce time.Time wall-clock ordering
// exactly: end(i) < start(j) here iff Step.Before reports it.
//
//procmine:hot
func followsCounts(col *wlog.Columnar, cs *wlog.Counts, lo, hi int) {
	n := cs.N
	acts := col.StepActs()
	startSec, startNsec, endSec, endNsec := col.StepTimes()
	off := col.ExecBounds()
	setIDs, setOff := col.DistinctSets()
	execSet := col.ExecSet()
	for e := lo; e < hi; e++ {
		cs.Gen++
		mark := cs.Gen
		set := setIDs[setOff[execSet[e]]:setOff[execSet[e]+1]]
		for i := 0; i < len(set); i++ {
			row := int(set[i]) * n
			for j := i + 1; j < len(set); j++ {
				// set is sorted ascending, so row's ID < set[j]: the cell is
				// already in the unordered (lo < hi) keying.
				cs.Cooc[row+int(set[j])]++
			}
		}
		b, t := int(off[e]), int(off[e+1])
		for i := b; i < t; i++ {
			ai := int(acts[i])
			for j := b; j < t; j++ {
				aj := int(acts[j])
				if i == j || ai == aj {
					continue
				}
				switch {
				case endSec[i] < startSec[j] ||
					(endSec[i] == startSec[j] && endNsec[i] < startNsec[j]):
					cell := ai*n + aj
					if cs.SeenOrder[cell] != mark {
						cs.SeenOrder[cell] = mark
						cs.Order[cell]++
					}
				case i < j &&
					(startSec[i] < endSec[j] ||
						(startSec[i] == endSec[j] && startNsec[i] < endNsec[j])) &&
					(startSec[j] < endSec[i] ||
						(startSec[j] == endSec[i] && startNsec[j] < endNsec[i])):
					u, v := ai, aj
					if u > v {
						u, v = v, u
					}
					cell := u*n + v
					if cs.SeenOverlap[cell] != mark {
						cs.SeenOverlap[cell] = mark
						cs.Overlap[cell]++
					}
				}
			}
		}
	}
}

// countsToPairs converts the dense interner-ID matrices to the pairCounts
// map form the assembly and diagnostics stages consume. It runs once per
// scan, outside the hot kernel.
func countsToPairs(col *wlog.Columnar, cs *wlog.Counts) pairCounts {
	labels := col.Labels()
	n := cs.N
	pc := newPairCounts()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			cell := u*n + v
			if c := cs.Order[cell]; c > 0 {
				pc.order[graph.Edge{From: labels[u], To: labels[v]}] = int(c)
			}
			if u < v {
				if c := cs.Overlap[cell]; c > 0 {
					pc.overlap[graph.Edge{From: labels[u], To: labels[v]}] = int(c)
				}
				if c := cs.Cooc[cell]; c > 0 {
					pc.cooc[graph.Edge{From: labels[u], To: labels[v]}] = int(c)
				}
			}
		}
	}
	return pc
}

// newPairCounts returns empty count maps.
func newPairCounts() pairCounts {
	return pairCounts{
		order:   make(map[graph.Edge]int),
		overlap: make(map[graph.Edge]int),
		cooc:    make(map[graph.Edge]int),
	}
}

// followsCountsMap is the hash-map accumulator, retained for very large
// alphabets where dense matrices would dominate memory (and as the oracle
// the columnar kernel is property-tested against). FollowsCountsMap exposes
// it for the ablation benchmark.
func followsCountsMap(l *wlog.Log) pairCounts {
	pc := newPairCounts()
	for _, exec := range l.Executions {
		pc.add(exec)
	}
	return pc
}

// add accumulates one execution's step-2 counts into pc and returns the
// execution's sorted distinct activity set. It is the per-execution body of
// the map accumulator, and the fold IncrementalMiner.Add runs.
func (pc pairCounts) add(exec wlog.Execution) []string {
	seenOrder := make(map[graph.Edge]bool)
	seenOverlap := make(map[graph.Edge]bool)
	acts := exec.ActivitySet()
	for i := 0; i < len(acts); i++ {
		for j := i + 1; j < len(acts); j++ {
			pc.cooc[graph.Edge{From: acts[i], To: acts[j]}]++
		}
	}
	steps := exec.Steps
	for i := range steps {
		for j := range steps {
			if i == j || steps[i].Activity == steps[j].Activity {
				continue
			}
			switch {
			case steps[i].Before(steps[j]):
				e := graph.Edge{From: steps[i].Activity, To: steps[j].Activity}
				if !seenOrder[e] {
					seenOrder[e] = true
					pc.order[e]++
				}
			case i < j && steps[i].Overlaps(steps[j]):
				e := graph.Edge{From: steps[i].Activity, To: steps[j].Activity}
				if e.From > e.To {
					e.From, e.To = e.To, e.From
				}
				if !seenOverlap[e] {
					seenOverlap[e] = true
					pc.overlap[e]++
				}
			}
		}
	}
	return acts
}

// buildFollowsGraph performs steps 1-3 on a log: the step-2 scan, then
// assembleFollowsGraph.
func buildFollowsGraph(l *wlog.Log, opt Options) (*graph.Digraph, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return assembleFollowsGraph(l.Columnar().Labels(), scanCounts(l), opt, nil)
}

// assembleFollowsGraph performs steps 1-3 shared by all algorithms on
// precomputed pair counts: add the pairwise-order edges that meet the noise
// threshold, and delete edges that appear in both directions (2-cycles).
// The vertex set is every activity of the alphabet, so activities that
// never participate in an ordered pair still become vertices. It is the
// single implementation of the threshold and cancellation rules, so no two
// mining paths can diverge on noise handling. A non-nil diag counts the
// pairs each rule removed. Options must have been validated by the caller.
//
// Beyond the paper's instantaneous-activities simplification, an observed
// overlap between two activities also cancels any edges between them: by
// Definition 3 a following requires the order to hold in *each* execution
// where both appear, and an overlap breaks that. Overlap observations below
// the noise threshold are ignored, symmetrically with order observations.
func assembleFollowsGraph(activities []string, pc pairCounts, opt Options, diag *Diagnostics) (*graph.Digraph, error) {
	g := graph.New()
	for _, a := range activities {
		g.AddVertex(a)
	}
	adaptive := opt.adaptiveEnabled()
	threshold := func(e graph.Edge) (int, error) {
		if !adaptive {
			return opt.MinSupport, nil
		}
		key := e
		if key.From > key.To {
			key.From, key.To = key.To, key.From
		}
		cooc := pc.cooc[key]
		if cooc <= 0 {
			// An observed pair co-occurs at least once, so a missing count
			// can only accompany a zero observation; threshold 1 filters it.
			return 1, nil
		}
		t, err := noise.ThresholdFor(cooc, opt.AdaptiveEpsilon)
		if err != nil {
			return 0, fmt.Errorf("core: adaptive threshold for %v: %w", e, err)
		}
		return t, nil
	}
	var below, twoCycle, overlap int
	for e, c := range pc.order {
		t, err := threshold(e)
		if err != nil {
			return nil, err
		}
		if c < t {
			below++
			continue
		}
		g.AddEdge(e.From, e.To)
	}
	// Step 3: remove edges present in both directions, and edges between
	// pairs observed overlapping (with at least threshold support).
	for _, e := range g.Edges() {
		if e.From < e.To && g.HasEdge(e.To, e.From) {
			g.RemoveEdge(e.From, e.To)
			g.RemoveEdge(e.To, e.From)
			twoCycle += 2
		}
	}
	for e, c := range pc.overlap {
		min, err := threshold(e)
		if err != nil {
			return nil, err
		}
		if min < 1 {
			min = 1
		}
		if c < min {
			continue
		}
		if g.RemoveEdge(e.From, e.To) {
			overlap++
		}
		if g.RemoveEdge(e.To, e.From) {
			overlap++
		}
	}
	if diag != nil {
		diag.OrderedPairs = len(pc.order)
		diag.BelowThreshold, diag.TwoCycleRemoved, diag.OverlapRemoved = below, twoCycle, overlap
	}
	return g, nil
}

// FollowsGraph returns the followings graph of the log after threshold
// filtering and 2-cycle removal (steps 1-3). An edge u->v means u was
// observed to terminate before v in at least max(1, MinSupport) executions
// and v was never (or sub-threshold) observed before u. Paths in this graph
// are exactly the "followings" of Definition 3. It fails with
// ErrInvalidEpsilon when opt carries an out-of-range AdaptiveEpsilon.
func FollowsGraph(l *wlog.Log, opt Options) (*graph.Digraph, error) {
	return buildFollowsGraph(l, opt)
}

// FollowsCounts returns the raw support count for every ordered activity
// pair: the number of executions in which the first activity terminates
// before the second starts. Useful for inspecting noise (Section 6).
func FollowsCounts(l *wlog.Log) map[graph.Edge]int {
	return scanCounts(l).order
}

// OverlapCounts returns, for every unordered activity pair (keyed with
// From < To), the number of executions in which instances of the two
// activities overlapped in time — direct evidence of independence.
func OverlapCounts(l *wlog.Log) map[graph.Edge]int {
	return scanCounts(l).overlap
}

// specialFormError checks the Algorithm 1 precondition and describes the
// first violation, or returns nil.
func specialFormError(l *wlog.Log) error {
	acts := l.Activities()
	want := len(acts)
	for _, exec := range l.Executions {
		if len(exec.Steps) != want {
			return fmt.Errorf("%w: execution %q has %d steps, want %d",
				ErrNotSpecialForm, exec.ID, len(exec.Steps), want)
		}
		seen := make(map[string]bool, want)
		for _, s := range exec.Steps {
			if seen[s.Activity] {
				return fmt.Errorf("%w: execution %q repeats activity %q",
					ErrNotSpecialForm, exec.ID, s.Activity)
			}
			seen[s.Activity] = true
		}
	}
	return nil
}

// FollowsCountsMap returns the ordered-pair support counts computed with
// the hash-map accumulator — the baseline the dense columnar kernel is
// benchmarked against (see bench_test.go's ablations) and the oracle the
// parallel scan is checked against.
func FollowsCountsMap(l *wlog.Log) map[graph.Edge]int {
	return followsCountsMap(l).order
}

// FollowsCountsSequential returns the ordered-pair support counts computed
// by the single-threaded production path (the columnar dense kernel, or the
// map accumulator past denseAlphabetMax, without sharding) — the baseline
// of the parallel-scan ablation recorded in the bench trajectory
// (cmd/benchreport).
func FollowsCountsSequential(l *wlog.Log) map[graph.Edge]int {
	col := l.Columnar()
	if col.Alphabet() > denseAlphabetMax {
		return followsCountsMap(l).order
	}
	cs := col.AcquireCounts()
	followsCounts(col, cs, 0, col.NumExecutions())
	pc := countsToPairs(col, cs)
	col.ReleaseCounts(cs)
	return pc.order
}

// FollowsCountsParallel returns the ordered-pair support counts computed by
// the sharded scan with exactly the given worker count, regardless of
// GOMAXPROCS or the log's size — the treatment arm of the parallel-scan
// ablation. Worker counts below 2, logs with fewer executions than
// workers, and alphabets past parallelDenseAlphabetMax fall back to the
// sequential accumulator (see ScanWorkersUsed). The result is
// identical to FollowsCountsSequential's for every log and worker count.
func FollowsCountsParallel(l *wlog.Log, workers int) map[graph.Edge]int {
	workers = ScanWorkersUsed(l, workers)
	if workers < 2 {
		return FollowsCountsSequential(l)
	}
	col := l.Columnar()
	cs := scanShards(col, workers, nil)
	pc := countsToPairs(col, cs)
	col.ReleaseCounts(cs)
	return pc.order
}
