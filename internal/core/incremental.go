package core

import (
	"context"
	"slices"

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
// The miner holds the interned state the batch miners build: the labeled
// alphabet, ordered-pair, overlap and co-occurrence counts keyed by
// activity-ID pair, and an arena of the distinct activity sets the marking
// pass consumes. Add folds each execution into it; AddFrom merges another
// miner's. Memory is O(n² + total size of the distinct sets), which grows
// almost linearly with the executions added on partial executions (a
// 20,000-execution, 100-activity service workload holds 16,079 distinct
// sets). Mine runs steps 3-7 on the state through the batch pipeline.
//
// Every execution is stored in instance-labeled form (Algorithm 3), so
// processes with cycles work transparently; for acyclic logs the labeled
// pipeline plus the final merge produces exactly the Algorithm 2 result.
//
// The zero value is ready to use. IncrementalMiner is not safe for
// concurrent use.
type IncrementalMiner struct {
	st         state
	executions int
	acts       []int32 // Add scratch
}

// NewIncrementalMiner returns an empty miner.
func NewIncrementalMiner() *IncrementalMiner {
	return &IncrementalMiner{}
}

// Executions returns the number of executions added so far.
func (im *IncrementalMiner) Executions() int { return im.executions }

// Activities returns the (unlabeled) activity alphabet seen so far, sorted.
func (im *IncrementalMiner) Activities() []string {
	out := make([]string, 0, len(im.st.labels))
	for _, a := range im.st.labels {
		out = append(out, UnlabelActivity(a))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Add incorporates one completed execution. Activity names must not contain
// the '#' instance separator.
func (im *IncrementalMiner) Add(exec wlog.Execution) error {
	ll, err := LabelInstances(&wlog.Log{Executions: []wlog.Execution{exec}})
	if err != nil {
		return err
	}
	steps := ll.Executions[0].Steps
	im.st.init()
	im.acts = im.acts[:0]
	for _, s := range steps {
		im.acts = append(im.acts, im.st.intern(s.Activity))
	}
	im.st.addSet(im.st.fold(im.acts, steps))
	im.executions++
	return nil
}

// AddFrom merges other's state into the miner, remapping activity IDs by
// label: counts and execution totals add, alphabets and distinct sets
// union. Merging is commutative, so miners fed disjoint executions combine
// into the state of one miner fed them all. other is only read.
func (im *IncrementalMiner) AddFrom(other *IncrementalMiner) {
	s, o := &im.st, &other.st
	s.init()
	remap := make([]int32, len(o.labels))
	for id, label := range o.labels {
		remap[id] = s.intern(label)
	}
	for _, p := range o.pairs {
		q := s.pair(remap[p.u], remap[p.v])
		for k, c := range p.n {
			q.n[k] += c
		}
	}
	var set []int32
	for i := 0; i+1 < len(o.setOff); i++ {
		set = set[:0]
		for _, id := range o.setIDs[o.setOff[i]:o.setOff[i+1]] {
			set = append(set, remap[id])
		}
		s.addSet(set)
	}
	im.executions += other.executions
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
// followings-graph assembly and before each distinct set's reduction in
// the marking pass, so a mine under a request deadline returns promptly.
func (im *IncrementalMiner) MineContext(ctx context.Context, opt Options) (*graph.Digraph, error) {
	return im.MineTracedContext(ctx, opt, nil)
}

// MineTracedContext is MineContext with per-stage spans (assemble → scc →
// mark → merge) recorded on tr; a nil trace is free. The service's /model
// path uses it to feed the mine_stage_seconds histograms.
func (im *IncrementalMiner) MineTracedContext(ctx context.Context, opt Options, tr *obs.Trace) (*graph.Digraph, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := checkAlphabet(len(im.st.labels), opt); err != nil {
		return nil, err
	}
	g, err := mineCounts(ctx, &im.st, opt, "assemble", tr, nil)
	if err != nil {
		return nil, err
	}
	sp := tr.Start("merge")
	g = MergeInstances(g)
	sp.End()
	return g, nil
}
