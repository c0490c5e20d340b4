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

// MineWithDiagnosticsContext is MineWithDiagnostics under cancellation and
// limits: it runs the same pipeline as MineContext, with the funnel counted
// inside its stages rather than reconstructed afterwards.
func MineWithDiagnosticsContext(ctx context.Context, l *wlog.Log, opt Options) (*graph.Digraph, *Diagnostics, error) {
	diag := &Diagnostics{Executions: l.Len(), Labeled: l.HasRepeats()}
	tr := obs.NewTrace()
	g, err := mineLog(ctx, l, opt, diag.Labeled, tr, diag)
	if err != nil {
		return nil, nil, err
	}
	diag.FinalEdges = g.NumEdges()
	diag.Stages = tr.Stages()
	return g, diag, nil
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
