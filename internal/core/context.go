package core

import (
	"context"
	"errors"
	"fmt"

	"procmine/internal/graph"
	"procmine/internal/wlog"
)

// Cancellation and resource limits. Mining is polynomial but not cheap —
// Algorithm 2's marking pass is the O(mn³) hot spot — and on adversarial or
// damaged logs the activity alphabet n (and Algorithm 3's instance count k)
// is attacker-controlled. The Context variants check ctx between scan passes
// and per-execution transitive reductions, and Options carries hard caps
// that turn unbounded allocation into typed errors.

// Typed limit errors.
var (
	// ErrTooManyActivities is returned when the log's activity alphabet
	// exceeds Options.MaxActivities.
	ErrTooManyActivities = errors.New("core: too many activities")
	// ErrTooManyInstances is returned by MineCyclic when some activity
	// repeats more than Options.MaxInstanceLabels times within one
	// execution (Algorithm 3's k), which would blow up the labeled
	// alphabet to kn.
	ErrTooManyInstances = errors.New("core: too many activity instances")
)

// checkAlphabet enforces Options.MaxActivities against a log.
func checkAlphabet(l *wlog.Log, opt Options) error {
	if opt.MaxActivities <= 0 {
		return nil
	}
	if n := len(l.Activities()); n > opt.MaxActivities {
		return fmt.Errorf("%w: %d > MaxActivities=%d", ErrTooManyActivities, n, opt.MaxActivities)
	}
	return nil
}

// checkInstances enforces Options.MaxInstanceLabels: the maximum number of
// occurrences of a single activity within a single execution.
func checkInstances(l *wlog.Log, opt Options) error {
	if opt.MaxInstanceLabels <= 0 {
		return nil
	}
	for _, exec := range l.Executions {
		counts := make(map[string]int, len(exec.Steps))
		for _, s := range exec.Steps {
			counts[s.Activity]++
			if k := counts[s.Activity]; k > opt.MaxInstanceLabels {
				return fmt.Errorf("%w: execution %q repeats %q %d times > MaxInstanceLabels=%d",
					ErrTooManyInstances, exec.ID, s.Activity, k, opt.MaxInstanceLabels)
			}
		}
	}
	return nil
}

// MineSpecialDAGContext is MineSpecialDAG with cancellation and limits: ctx
// is checked between the precondition scan, the pair-counting pass, and the
// transitive reduction.
func MineSpecialDAGContext(ctx context.Context, l *wlog.Log, opt Options) (*graph.Digraph, error) {
	if err := checkAlphabet(l, opt); err != nil {
		return nil, err
	}
	if err := specialFormError(l); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The follows scan waits on a fixed fan-out of CPU-bound workers that
	// always terminate; cancellation is honored at the phase boundaries
	// around it, and pushing ctx into the scan itself is the columnar-scan
	// refactor tracked in ROADMAP.md.
	//lint:ignore procmine/ctxleak scan workers are bounded CPU work; ctx is checked at phase boundaries
	g, err := buildFollowsGraph(l, opt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	red, err := g.TransitiveReduction()
	if err != nil {
		if errors.Is(err, graph.ErrCyclic) {
			return nil, fmt.Errorf("%w: %v", ErrCyclicFollows, err)
		}
		return nil, err
	}
	return red, nil
}

// MineGeneralDAGContext is MineGeneralDAG with cancellation and limits: ctx
// is checked between the pair-counting pass and before each per-execution
// transitive reduction of the marking pass (the O(mn³) hot spot), so a
// cancelled mine returns promptly even on very large logs.
func MineGeneralDAGContext(ctx context.Context, l *wlog.Log, opt Options) (*graph.Digraph, error) {
	if err := checkAlphabet(l, opt); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	//lint:ignore procmine/ctxleak scan workers are bounded CPU work; ctx is checked at phase boundaries
	g, err := dependencyGraph(l, opt) // steps 1-4
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	marked, err := markRequired(ctx, g, l.Columnar())
	if err != nil {
		return nil, err
	}
	// Step 6: remove the unmarked edges.
	for _, e := range g.Edges() {
		if !marked[e] {
			g.RemoveEdge(e.From, e.To)
		}
	}
	return g, nil
}

// MineCyclicContext is MineCyclic with cancellation and limits: the
// per-execution instance count is capped by Options.MaxInstanceLabels
// before the labeled alphabet is materialized, and the labeled alphabet is
// itself subject to Options.MaxActivities.
func MineCyclicContext(ctx context.Context, l *wlog.Log, opt Options) (*graph.Digraph, error) {
	if err := checkInstances(l, opt); err != nil {
		return nil, err
	}
	labeled, err := LabelInstances(l)
	if err != nil {
		return nil, err
	}
	mined, err := MineGeneralDAGContext(ctx, labeled, opt)
	if err != nil {
		return nil, fmt.Errorf("core: mining labeled log: %w", err)
	}
	return MergeInstances(mined), nil
}

// MineContext mines with automatic algorithm choice (like procmine.Mine)
// under cancellation and limits.
func MineContext(ctx context.Context, l *wlog.Log, opt Options) (*graph.Digraph, error) {
	if l.HasRepeats() {
		return MineCyclicContext(ctx, l, opt)
	}
	return MineGeneralDAGContext(ctx, l, opt)
}
