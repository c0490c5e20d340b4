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

// denseAlphabetMax bounds the activity alphabet for which the step-2 scan
// accumulates into dense n×n scratch matrices; beyond it the n² int32
// matrices (~20·n² bytes in total) stop being worth their memory and the
// per-execution fold takes over. The ablation benchmark measures the dense
// path several times faster on the Table 1 workloads, where the O(len²·m)
// pair scan dominates mining.
const denseAlphabetMax = 2048

// scanState runs the step-2 scan (shared by every algorithm) with the
// worker count scanWorkers picks for the log.
func scanState(l *wlog.Log, tr *obs.Trace) *state {
	col := l.Columnar()
	return scanWith(l, scanWorkers(col.NumExecutions(), col.Alphabet()), tr)
}

// scanWith scans l into a state holding its columnar alphabet and distinct
// sets: the dense followsCounts kernel over pooled scratch matrices up to
// denseAlphabetMax, sharded when workers > 1 and converted into the state
// once, and the per-execution fold beyond. Per-worker "scan/workerN" spans
// are recorded on tr, which may be nil.
func scanWith(l *wlog.Log, workers int, tr *obs.Trace) *state {
	col := l.Columnar()
	setIDs, setOff := col.DistinctSets()
	st := &state{labels: col.Labels(), setIDs: setIDs, setOff: setOff}
	if col.Alphabet() > denseAlphabetMax {
		st.foldLog(l)
		return st
	}
	var cs *wlog.Counts
	if workers > 1 {
		cs = scanShards(col, workers, tr)
	} else {
		sp := tr.Start("scan/worker0")
		cs = col.AcquireCounts()
		followsCounts(col, cs, 0, col.NumExecutions())
		sp.End()
	}
	st.addDense(cs)
	col.ReleaseCounts(cs)
	return st
}

// foldLog folds every execution of l into s, which must hold l's columnar
// alphabet and no counts.
func (s *state) foldLog(l *wlog.Log) {
	s.pairIdx = map[uint64]int32{}
	acts, off := l.Columnar().StepActs(), l.Columnar().ExecBounds()
	for e, exec := range l.Executions {
		s.fold(acts[off[e]:off[e+1]], exec.Steps)
	}
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

// assembleFollowsGraph performs steps 1-3 shared by all algorithms on a
// state's pair counts: add the pairwise-order edges that meet the noise
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
func assembleFollowsGraph(st *state, opt Options, diag *Diagnostics) (*graph.Digraph, error) {
	g := graph.New()
	for _, a := range st.labels {
		g.AddVertex(a)
	}
	var ordered, below, twoCycle, overlap int
	for _, p := range st.pairs {
		from, to := st.labels[p.u], st.labels[p.v]
		t := opt.MinSupport
		if opt.adaptiveEnabled() {
			// An observed pair co-occurs at least once, so a missing count
			// can only accompany a zero observation; threshold 1 filters it.
			t = 1
			if cooc := p.n[coocGroup]; cooc > 0 {
				var err error
				if t, err = noise.ThresholdFor(cooc, opt.AdaptiveEpsilon); err != nil {
					return nil, fmt.Errorf("core: adaptive threshold for %s-%s: %w", from, to, err)
				}
			}
		}
		fwdN, backN := p.n[orderGroup], p.n[backOrder]
		for _, c := range [2]int{fwdN, backN} {
			if c > 0 {
				ordered++
				if c < t {
					below++
				}
			}
		}
		fwd, back := fwdN > 0 && fwdN >= t, backN > 0 && backN >= t
		// Step 3: no edge for a pair seen in both directions, or seen
		// overlapping with at least threshold support.
		switch {
		case fwd && back:
			twoCycle += 2
		case (fwd || back) && p.n[overlapGroup] >= max(t, 1):
			overlap++
		case fwd:
			g.AddEdge(from, to)
		case back:
			g.AddEdge(to, from)
		}
	}
	if diag != nil {
		diag.OrderedPairs = ordered
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
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return assembleFollowsGraph(scanState(l, nil), opt, nil)
}

// FollowsCounts returns the raw support count for every ordered activity
// pair: the number of executions in which the first activity terminates
// before the second starts. Useful for inspecting noise (Section 6).
func FollowsCounts(l *wlog.Log) map[graph.Edge]int {
	return scanState(l, nil).labeledCounts()[orderGroup]
}

// OverlapCounts returns, for every unordered activity pair (keyed with
// From < To), the number of executions in which instances of the two
// activities overlapped in time — direct evidence of independence.
func OverlapCounts(l *wlog.Log) map[graph.Edge]int {
	return scanState(l, nil).labeledCounts()[overlapGroup]
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

// FollowsCountsMap returns the ordered-pair support counts computed by the
// per-execution fold over interned IDs — the accumulator used past
// denseAlphabetMax and by IncrementalMiner, and the baseline the dense
// columnar kernel is benchmarked against (see bench_test.go's ablations).
func FollowsCountsMap(l *wlog.Log) map[graph.Edge]int {
	st := &state{labels: l.Columnar().Labels()}
	st.foldLog(l)
	return st.labeledCounts()[orderGroup]
}

// FollowsCountsSequential returns the ordered-pair support counts computed
// by the single-threaded production path (the columnar dense kernel, or the
// fold past denseAlphabetMax, without sharding) — the baseline of the
// parallel-scan ablation recorded in the bench trajectory
// (cmd/benchreport).
func FollowsCountsSequential(l *wlog.Log) map[graph.Edge]int {
	return FollowsCountsParallel(l, 1)
}

// FollowsCountsParallel returns the ordered-pair support counts computed by
// the sharded scan with exactly the given worker count, regardless of
// GOMAXPROCS or the log's size — the treatment arm of the parallel-scan
// ablation. Worker counts below 2, logs with fewer executions than
// workers, and alphabets past parallelDenseAlphabetMax fall back to the
// sequential accumulator (see ScanWorkersUsed). The result is
// identical to FollowsCountsSequential's for every log and worker count.
func FollowsCountsParallel(l *wlog.Log, workers int) map[graph.Edge]int {
	return scanWith(l, ScanWorkersUsed(l, workers), nil).labeledCounts()[orderGroup]
}
