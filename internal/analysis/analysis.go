// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package at a time and reports Diagnostics, or, when it is
// module-level, inspects the whole module's call graph once. It exists because
// procmine vendors no third-party modules; the API deliberately mirrors the
// upstream one so the passes under passes/ could migrate to x/tools verbatim
// if the dependency ever becomes available.
//
// The suite enforces the invariants that the paper's conformality
// guarantees (Definitions 4-6) rest on: deterministic serialization,
// context propagation through the O(mn^3) mining loops, no silently
// dropped errors on ingest paths, and no mutable package-level state that
// would block sharded or parallel mining.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in
	// //lint:ignore procmine/<name> directives. It must be a valid
	// identifier.
	Name string
	// Doc is a one-paragraph description of the invariant the pass
	// enforces and why it matters.
	Doc string
	// Run applies the pass to one package, reporting findings via
	// pass.Report or pass.Reportf.
	Run func(*Pass) error
	// RunModule marks the analyzer as module-level: its findings in one
	// package depend on code elsewhere in the module (hot-path
	// reachability flows from importers to importees; lock-order cycles
	// span arbitrary packages), so it runs once over the module-wide facts
	// (a *callgraph.Graph) instead of once per package. An analyzer sets
	// exactly one of Run and RunModule.
	RunModule func(facts any) []ModuleFinding
}

// ModuleFinding is one diagnostic from a module-level analyzer: already
// positioned, because a module run has no single Fset-backed package
// context to defer rendering to.
type ModuleFinding struct {
	// Pos locates the finding (rendered).
	Pos token.Position
	// Message states the violation.
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Fset maps token positions back to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees, with comments.
	Files []*ast.File
	// Pkg is the type-checked package; Pkg.Path() is the import path.
	Pkg *types.Package
	// TypesInfo records types and object resolutions for expressions.
	TypesInfo *types.Info
	// ForceScope treats the package as in scope for every analyzer's
	// package-path predicate. The analysistest harness sets it because its
	// synthetic packages have paths like "a" that would otherwise fall
	// outside the internal/-based scoping rules.
	ForceScope bool
	// Facts carries interprocedural context when the driver computed one:
	// a *callgraph.Graph with summaries for this package's functions (and,
	// in module-wide runs, every module function). It is declared as any to
	// keep this package free of the callgraph dependency; passes that need
	// it type-assert and treat a nil or missing graph as "no
	// interprocedural information", reporting nothing rather than guessing.
	Facts any
	// Counters accumulates named coverage counters (see Count): how often
	// the pass skipped a site it could not reason about. The driver
	// aggregates them per pass for -stats and the -timing JSON.
	Counters map[string]int

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the offending syntax.
	Pos token.Pos
	// Message states the violation and, where possible, the fix.
	Message string
	// Analyzer is the name of the reporting pass.
	Analyzer string
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.diagnostics = append(p.diagnostics, d)
}

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings reported so far, in report order.
func (p *Pass) Diagnostics() []Diagnostic { return p.diagnostics }

// Count increments a named coverage counter. Passes use it where they
// silently skip a site — a non-canonicalizable mutex receiver, say — so
// the coverage gap is measurable instead of invisible.
func (p *Pass) Count(name string) {
	if p.Counters == nil {
		p.Counters = make(map[string]int)
	}
	p.Counters[name]++
}

// Run applies a to pkg and returns its findings with suppression
// directives (see suppress.go) already applied.
func Run(a *Analyzer, pass *Pass) ([]Diagnostic, error) {
	pass.Analyzer = a
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sup := CollectSuppressions(pass.Fset, pass.Files)
	kept := pass.diagnostics[:0]
	for _, d := range pass.diagnostics {
		if !sup.Suppresses(pass.Fset, d) {
			kept = append(kept, d)
		}
	}
	return kept, nil
}
