package core

import (
	"context"
	"fmt"
	"io"

	"procmine/internal/graph"
	"procmine/internal/obs"
	"procmine/internal/wlog"
)

// Diagnostics traces the Algorithm 2/3 pipeline: how many candidate edges
// each stage admitted or removed. It answers "why is (or isn't) this edge
// in my model" at the aggregate level; per-edge evidence is Support.
type Diagnostics struct {
	// Executions and Activities size the input (labeled counts for cyclic
	// logs, where each activity instance is its own label).
	Executions, Activities int
	// Labeled reports whether instance labeling (Algorithm 3) was applied.
	Labeled bool
	// OrderedPairs is the number of distinct ordered pairs observed
	// (step 2); BelowThreshold of them fell under the noise threshold.
	OrderedPairs, BelowThreshold int
	// TwoCycleRemoved counts edges cancelled against their reverse
	// (step 3); OverlapRemoved counts edges cancelled by observed overlaps.
	TwoCycleRemoved, OverlapRemoved int
	// IntraSCCRemoved counts edges inside strongly connected components
	// (step 4); SCCs lists the independence clusters found (size > 1).
	IntraSCCRemoved int
	SCCs            [][]string
	// UnmarkedRemoved counts dependency-graph edges no execution needed
	// (step 6). FinalEdges is the mined graph's edge count.
	UnmarkedRemoved, FinalEdges int
	// Stages records wall time and allocation deltas per pipeline stage
	// (label → columnar → scan, with one sub-span per parallel scan worker,
	// → threshold → scc → mark → reduce). Render with obs.WriteStageTable.
	Stages []obs.Stage
}

// MineWithDiagnostics runs the full pipeline (Algorithm 3 when the log
// repeats activities, Algorithm 2 otherwise) and reports the stage funnel
// alongside the mined graph.
func MineWithDiagnostics(l *wlog.Log, opt Options) (*graph.Digraph, *Diagnostics, error) {
	return MineWithDiagnosticsContext(context.Background(), l, opt)
}

// MineWithDiagnosticsContext is MineWithDiagnostics under cancellation: ctx
// is checked while scanning executions and by the marking pass, so tracing
// a mine on a huge log can be abandoned promptly.
func MineWithDiagnosticsContext(ctx context.Context, l *wlog.Log, opt Options) (*graph.Digraph, *Diagnostics, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	diag := &Diagnostics{Executions: l.Len()}
	tr := obs.NewTrace()

	work := l
	sp := tr.Start("label")
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if diag.Labeled = l.HasRepeats(); diag.Labeled {
		labeled, err := LabelInstances(l)
		if err != nil {
			return nil, nil, err
		}
		work = labeled
	}
	sp.End()
	diag.Activities = len(work.Activities())

	// Materializing the columnar view here makes its cost its own stage
	// instead of folding it into the scan's.
	sp = tr.Start("columnar")
	work.Columnar()
	sp.End()

	sp = tr.Start("scan")
	//lint:ignore procmine/ctxleak scan workers are bounded CPU work; diagnostics mirror the mining pipeline's phase-boundary cancellation
	pc := scanCountsTraced(work, tr)
	sp.End()
	diag.OrderedPairs = len(pc.order)

	// Reconstruct the funnel stage by stage, reusing the pair counts
	// already accumulated above instead of rescanning the log.
	sp = tr.Start("threshold")
	g, err := assembleFollowsGraph(work.Activities(), pc, opt)
	if err != nil {
		return nil, nil, err
	}
	afterSteps13 := g.NumEdges()
	// Edges that never made it: below threshold, 2-cycle, or overlap.
	kept := map[graph.Edge]bool{}
	for _, e := range g.Edges() {
		kept[e] = true
	}
	for e, c := range pc.order {
		if kept[e] {
			continue
		}
		min := opt.MinSupport
		if opt.AdaptiveEpsilon > 0 && opt.AdaptiveEpsilon < 0.5 {
			key := e
			if key.From > key.To {
				key.From, key.To = key.To, key.From
			}
			if t, err := thresholdForPair(pc.cooc[key], opt.AdaptiveEpsilon); err == nil {
				min = t
			}
		}
		switch {
		case c < min:
			diag.BelowThreshold++
		case pc.order[graph.Edge{From: e.To, To: e.From}] >= min && pc.order[graph.Edge{From: e.To, To: e.From}] > 0:
			diag.TwoCycleRemoved++
		default:
			diag.OverlapRemoved++
		}
	}
	sp.End()

	sp = tr.Start("scc")
	for _, c := range g.SCCs() {
		if len(c) > 1 {
			diag.SCCs = append(diag.SCCs, c)
		}
	}
	diag.IntraSCCRemoved = g.RemoveIntraSCCEdges()
	sp.End()
	afterStep4 := g.NumEdges()
	_ = afterSteps13

	sp = tr.Start("mark")
	marked, err := markRequired(ctx, g, work.Columnar())
	if err != nil {
		return nil, nil, err
	}
	for _, e := range g.Edges() {
		if !marked[e] {
			g.RemoveEdge(e.From, e.To)
		}
	}
	sp.End()
	diag.UnmarkedRemoved = afterStep4 - g.NumEdges()

	sp = tr.Start("reduce")
	if diag.Labeled {
		g = MergeInstances(g)
	}
	sp.End()
	diag.FinalEdges = g.NumEdges()
	diag.Stages = tr.Stages()
	return g, diag, nil
}

// thresholdForPair mirrors the adaptive rule without importing noise at the
// call site twice; it simply delegates.
func thresholdForPair(cooc int, eps float64) (int, error) {
	return adaptiveThreshold(cooc, eps)
}

// WriteReport renders the stage funnel.
func (d *Diagnostics) WriteReport(w io.Writer) error {
	mode := "acyclic (Algorithm 2)"
	if d.Labeled {
		mode = "cyclic (Algorithm 3, instance-labeled)"
	}
	clusters := ""
	if len(d.SCCs) > 0 {
		clusters = fmt.Sprintf(" (independence clusters: %v)", d.SCCs)
	}
	lines := []string{
		fmt.Sprintf("pipeline: %s\n", mode),
		fmt.Sprintf("input:    %d executions, %d activities\n", d.Executions, d.Activities),
		fmt.Sprintf("step 2:   %d distinct ordered pairs\n", d.OrderedPairs),
		fmt.Sprintf("step 3:   -%d below threshold, -%d two-cycle cancelled, -%d overlap cancelled\n",
			d.BelowThreshold, d.TwoCycleRemoved, d.OverlapRemoved),
		fmt.Sprintf("step 4:   -%d intra-SCC edges%s\n", d.IntraSCCRemoved, clusters),
		fmt.Sprintf("step 5-6: -%d unmarked edges\n", d.UnmarkedRemoved),
		fmt.Sprintf("result:   %d edges\n", d.FinalEdges),
	}
	for _, line := range lines {
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	return nil
}
