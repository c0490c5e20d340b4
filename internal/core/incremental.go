package core

import (
	"context"
	"sort"

	"procmine/internal/graph"
	"procmine/internal/obs"
	"procmine/internal/wlog"
)

// IncrementalMiner supports the paper's model-evolution use case (Section
// 1: "allow the evolution of the current process model into future versions
// of the model by incorporating feedback from successful process
// executions"): executions are added one at a time as they complete, and a
// fresh conformal graph can be materialized at any point without rescanning
// past executions.
//
// The miner maintains the step-2 state incrementally — ordered-pair,
// overlap and co-occurrence support counts, the activity alphabet, and the
// set of distinct activity-set signatures (what Algorithm 2's marking pass
// actually consumes). Memory is O(n² + total size of the distinct
// signatures). That is not independent of the number of executions: on
// partial executions almost every execution can bring a new activity set
// (a 20,000-execution, 100-activity service workload holds 16,079 distinct
// signatures), so the signature store grows almost linearly with the
// executions added. Mine runs steps 3-7 on that state through the same
// count-to-graph pipeline as the batch miners.
//
// Every execution is stored in instance-labeled form (Algorithm 3), so
// processes with cycles work transparently; for acyclic logs the labeled
// pipeline plus the final merge produces exactly the Algorithm 2 result.
//
// The zero value is ready to use. IncrementalMiner is not safe for
// concurrent use.
type IncrementalMiner struct {
	activities map[string]bool
	// counts holds the step-2 pair counts over the labeled alphabet; its
	// co-occurrence counts are the m of the per-pair Section 6 balance
	// rule, so Mine can apply Options.AdaptiveEpsilon exactly as the batch
	// path does.
	counts pairCounts
	// sigs maps an activity-set signature to the sorted labeled activity
	// set; the marking pass needs each distinct set once.
	sigs map[string][]string
	// executions counts Add calls.
	executions int
}

// NewIncrementalMiner returns an empty miner.
func NewIncrementalMiner() *IncrementalMiner {
	im := &IncrementalMiner{}
	im.init()
	return im
}

// init lazily initializes the zero value.
func (im *IncrementalMiner) init() {
	if im.activities == nil {
		im.activities = make(map[string]bool)
		im.counts = newPairCounts()
		im.sigs = make(map[string][]string)
	}
}

// Executions returns the number of executions added so far.
func (im *IncrementalMiner) Executions() int { return im.executions }

// Activities returns the (unlabeled) activity alphabet seen so far, sorted.
func (im *IncrementalMiner) Activities() []string {
	set := map[string]bool{}
	for a := range im.activities {
		set[UnlabelActivity(a)] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Add incorporates one completed execution. Activity names must not contain
// the '#' instance separator.
func (im *IncrementalMiner) Add(exec wlog.Execution) error {
	im.init()
	ll, err := LabelInstances(&wlog.Log{Executions: []wlog.Execution{exec}})
	if err != nil {
		return err
	}
	im.addLabeled(ll.Executions[0])
	return nil
}

// AddLog incorporates every execution of a log.
func (im *IncrementalMiner) AddLog(l *wlog.Log) error {
	for _, e := range l.Executions {
		if err := im.Add(e); err != nil {
			return err
		}
	}
	return nil
}

func (im *IncrementalMiner) addLabeled(exec wlog.Execution) {
	im.executions++
	set := im.counts.add(exec)
	for _, a := range set {
		im.activities[a] = true
	}
	im.sigs[signature(set)] = set
}

// Mine materializes a conformal graph from the accumulated state: Algorithm
// 2 steps 3-6 on the counts and the distinct labeled activity sets, then
// the instance merge of Algorithm 3.
//
// Steps 3-6 — including the per-pair Options.AdaptiveEpsilon balance rule,
// the Options.MaxActivities check on the labeled alphabet and the parallel
// marking pass — run through the same mineCounts pipeline as the batch
// miners, so mining a log incrementally and batch-mining the same log with
// the same Options produce identical graphs (the parity and reference
// oracle tests gate this). Like the batch entry points it fails with
// ErrInvalidEpsilon on an out-of-range AdaptiveEpsilon.
func (im *IncrementalMiner) Mine(opt Options) (*graph.Digraph, error) {
	return im.MineContext(context.Background(), opt)
}

// MineContext is Mine with cancellation: ctx is checked before the
// followings-graph assembly and before each signature set's reduction in
// the marking pass, so a mine under a request deadline returns promptly.
func (im *IncrementalMiner) MineContext(ctx context.Context, opt Options) (*graph.Digraph, error) {
	return im.MineTracedContext(ctx, opt, nil)
}

// MineTracedContext is MineContext with per-stage spans (assemble → scc →
// mark → merge) recorded on tr; a nil trace is free. The service's /model
// path uses it to feed the mine_stage_seconds histograms.
func (im *IncrementalMiner) MineTracedContext(ctx context.Context, opt Options, tr *obs.Trace) (*graph.Digraph, error) {
	im.init()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err := mineCounts(ctx, im.countInput(), opt, "assemble", tr, nil)
	if err != nil {
		return nil, err
	}
	sp := tr.Start("merge")
	g = MergeInstances(g)
	sp.End()
	return g, nil
}

// countInput lays the miner's state out as the pipeline's input: the
// labeled alphabet sorted, and every signature rewritten once as ascending
// indices into it, in one arena — the shape the batch marking kernel
// sweeps. Signature members missing from the alphabet (possible only in a
// hand-built snapshot) are dropped, as the marking pass would ignore them.
func (im *IncrementalMiner) countInput() countInput {
	labels := make([]string, 0, len(im.activities))
	for a := range im.activities {
		labels = append(labels, a)
	}
	sort.Strings(labels)
	ids := make(map[string]int32, len(labels))
	for i, a := range labels {
		ids[a] = int32(i)
	}
	setOff := make([]int32, 1, len(im.sigs)+1)
	var setIDs []int32
	for _, set := range im.sigs {
		for _, a := range set {
			if id, ok := ids[a]; ok {
				setIDs = append(setIDs, id)
			}
		}
		setOff = append(setOff, int32(len(setIDs)))
	}
	return countInput{labels: labels, setIDs: setIDs, setOff: setOff, count: func() pairCounts { return im.counts }}
}
