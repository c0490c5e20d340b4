package core

import (
	"context"
	"errors"
	"fmt"

	"procmine/internal/graph"
	"procmine/internal/obs"
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

// checkAlphabet enforces Options.MaxActivities against an alphabet of n
// activities.
func checkAlphabet(n int, opt Options) error {
	if opt.MaxActivities > 0 && n > opt.MaxActivities {
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
	if err := checkAlphabet(len(l.Activities()), opt); err != nil {
		return nil, err
	}
	if err := specialFormError(l); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	//lint:ignore procmine/ctxleak scan workers are bounded CPU work; ctx is checked at phase boundaries
	g, err := FollowsGraph(l, opt)
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
	return mineLog(ctx, l, opt, false, nil, nil)
}

// MineCyclicContext is MineCyclic with cancellation and limits: the
// per-execution instance count is capped by Options.MaxInstanceLabels
// before the labeled alphabet is materialized, and the labeled alphabet is
// itself subject to Options.MaxActivities.
func MineCyclicContext(ctx context.Context, l *wlog.Log, opt Options) (*graph.Digraph, error) {
	return mineLog(ctx, l, opt, true, nil, nil)
}

// mineLog is the batch driver of the count-to-graph pipeline: Algorithm 3
// when label is set (instance labeling, mineCounts on the labeled log, then
// the instance merge), Algorithm 2 otherwise. It records the batch stages
// label → columnar → scan (with one sub-span per parallel scan worker) →
// threshold → scc → mark → reduce on tr, and the funnel on diag; both may
// be nil.
func mineLog(ctx context.Context, l *wlog.Log, opt Options, label bool, tr *obs.Trace, diag *Diagnostics) (*graph.Digraph, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := tr.Start("label")
	work := l
	if label {
		if err := checkInstances(l, opt); err != nil {
			return nil, err
		}
		var err error
		if work, err = LabelInstances(l); err != nil {
			return nil, err
		}
	}
	sp.End()

	// Materializing the columnar view here makes its cost its own stage
	// instead of folding it into the scan's.
	sp = tr.Start("columnar")
	col := work.Columnar()
	sp.End()
	if diag != nil {
		diag.Activities = col.Alphabet()
	}
	if err := checkAlphabet(col.Alphabet(), opt); err != nil {
		if label {
			return nil, fmt.Errorf("core: mining labeled log: %w", err)
		}
		return nil, err
	}
	sp = tr.Start("scan")
	//lint:ignore procmine/ctxleak scan workers are bounded CPU work; ctx is checked at phase boundaries
	st := scanState(work, tr)
	sp.End()
	g, _, err := mineCounts(ctx, []StateView{st.view(l.Len())}, nil, opt, "threshold", tr, diag)
	if err != nil {
		if label {
			return nil, fmt.Errorf("core: mining labeled log: %w", err)
		}
		return nil, err
	}

	sp = tr.Start("reduce")
	if label {
		g = MergeInstances(g)
	}
	sp.End()
	return g, nil
}

// MineContext mines with automatic algorithm choice (like procmine.Mine)
// under cancellation and limits.
func MineContext(ctx context.Context, l *wlog.Log, opt Options) (*graph.Digraph, error) {
	return mineLog(ctx, l, opt, l.HasRepeats(), nil, nil)
}
