// Package driver loads and type-checks Go packages for the procmine-vet
// analyzer suite without depending on golang.org/x/tools. It resolves
// packages and their export data with `go list -export -deps -json` (which
// works offline against the local build cache) and type-checks each target
// package from source with the standard library's gc importer.
//
// A run has one shape. GOMAXPROCS workers parse, type-check and scan the
// target packages, each against a shared thread-safe FileSet with its own
// gc importer. Every package's functions then go into one module call
// graph with computed summaries. Per-package analyzers (Run) see each
// package with that graph as their facts; module-level analyzers
// (RunModule) run once over the graph. Findings of both kinds are filtered
// through the module's //lint:ignore directives.
//
// Only non-test files are analyzed: `go list` does not produce export data
// for the test dependency graph, and the invariants the suite enforces
// (deterministic output, context propagation, error handling, no mutable
// globals) concern production code paths.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"procmine/internal/analysis"
	"procmine/internal/analysis/callgraph"
)

// Finding is one analyzer diagnostic resolved to a file position.
type Finding struct {
	// Analyzer names the reporting pass.
	Analyzer string
	// Pos is the file:line:column of the offending syntax.
	Pos token.Position
	// Message states the violation.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// listPackage is the subset of `go list -json` output the driver consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
	Error      *struct{ Err string }
}

// PassTiming is one pass's aggregate cost over a run.
type PassTiming struct {
	// Pass names the analyzer ("callgraph" for the shared graph+summary
	// construction that precedes the passes).
	Pass string `json:"pass"`
	// Millis is wall time summed across all analyzed packages.
	Millis float64 `json:"millis"`
	// Findings counts surviving diagnostics.
	Findings int `json:"findings"`
	// Counters aggregates the pass's coverage counters (see
	// analysis.Pass.Count) across all packages.
	Counters map[string]int `json:"counters,omitempty"`
}

// Stats describes where a run spent its time.
type Stats struct {
	// Packages is the number of target packages analyzed.
	Packages int `json:"packages"`
	// Passes holds one entry per analyzer plus the "callgraph" row, in
	// suite order.
	Passes []PassTiming `json:"passes"`
}

// Result is everything a run produced.
type Result struct {
	// Findings are the surviving diagnostics sorted by position
	// (file, line, column, pass, message).
	Findings []Finding
	// Stats is the per-pass timing/count breakdown.
	Stats Stats
	// Graph is the module-wide call graph with computed summaries,
	// available for the -graph dump and the unresolved-edge gate.
	Graph *callgraph.Graph
}

// unit is one target package moving through the run.
type unit struct {
	lp    listPackage
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	fns   []*callgraph.Function
	err   error
}

// Run loads the packages matched by patterns (resolved by `go list` in dir;
// "" means the process working directory), applies every analyzer, and
// returns the surviving findings sorted by position together with per-pass
// timing and the module call graph. It returns an error if loading or
// type-checking fails; analyzers themselves reporting findings is not an
// error.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) (*Result, error) {
	targets, exports, err := load(patterns, dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	analyzed := make(map[string]bool, len(targets))
	for _, lp := range targets {
		analyzed[lp.ImportPath] = true
	}

	// Load phase: workers pull targets in `go list` order. Type-checking
	// reads the export data `go list -export` already compiled, never a
	// sibling worker's output, so the order does not matter.
	units := make([]*unit, len(targets))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				u := &unit{lp: targets[i]}
				loadUnit(u, fset, exports, analyzed)
				units[i] = u
			}
		}()
	}
	for i := range targets {
		idx <- i
	}
	close(idx)
	wg.Wait()
	var allFiles []*ast.File
	for _, u := range units {
		if u.err != nil {
			return nil, u.err
		}
		allFiles = append(allFiles, u.files...)
	}

	graphStart := time.Now()
	g := callgraph.NewGraph(fset)
	for _, u := range units {
		g.Install(u.fns)
	}
	g.Finalize()
	g.ComputeSummaries()
	graphElapsed := time.Since(graphStart)

	elapsed := make(map[string]time.Duration, len(analyzers))
	counts := make(map[string]int, len(analyzers))
	counters := make(map[string]map[string]int)
	var findings []Finding
	for _, a := range analyzers {
		if a.RunModule != nil {
			continue
		}
		for _, u := range units {
			pass := &analysis.Pass{
				Fset:      fset,
				Files:     u.files,
				Pkg:       u.pkg,
				TypesInfo: u.info,
				Facts:     g,
			}
			start := time.Now()
			diags, err := analysis.Run(a, pass)
			elapsed[a.Name] += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", u.lp.ImportPath, err)
			}
			counts[a.Name] += len(diags)
			for name, n := range pass.Counters {
				if counters[a.Name] == nil {
					counters[a.Name] = make(map[string]int)
				}
				counters[a.Name][name] += n
			}
			for _, d := range diags {
				findings = append(findings, Finding{Analyzer: d.Analyzer, Pos: fset.Position(d.Pos), Message: d.Message})
			}
		}
	}

	// Module-level passes run once over the whole graph; a finding can land
	// in any package, so every package's directives filter it.
	sup := analysis.CollectSuppressions(fset, allFiles)
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		start := time.Now()
		for _, mf := range a.RunModule(g) {
			if sup.SuppressesAt(mf.Pos, a.Name) {
				continue
			}
			findings = append(findings, Finding{Analyzer: a.Name, Pos: mf.Pos, Message: mf.Message})
			counts[a.Name]++
		}
		elapsed[a.Name] += time.Since(start)
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	stats := Stats{Packages: len(units)}
	stats.Passes = append(stats.Passes, PassTiming{
		Pass:   "callgraph",
		Millis: float64(graphElapsed.Microseconds()) / 1000,
	})
	for _, a := range analyzers {
		stats.Passes = append(stats.Passes, PassTiming{
			Pass:     a.Name,
			Millis:   float64(elapsed[a.Name].Microseconds()) / 1000,
			Findings: counts[a.Name],
			Counters: counters[a.Name],
		})
	}
	return &Result{Findings: findings, Stats: stats, Graph: g}, nil
}

// loadUnit parses, type-checks and scans one target. Safe to call from
// multiple workers: the FileSet is synchronized, each call builds its own gc
// importer, and exports/analyzed are read-only by now.
func loadUnit(u *unit, fset *token.FileSet, exports map[string]string, analyzed map[string]bool) {
	files, err := parseFiles(fset, u.lp)
	if err != nil {
		u.err = err
		return
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	// One importer per package: the gc importer's internal package cache is
	// not documented as concurrency-safe, and building it per unit costs
	// little next to the type-check itself.
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	pkg, err := conf.Check(u.lp.ImportPath, fset, files, info)
	if err != nil {
		u.err = fmt.Errorf("type-checking %s: %w", u.lp.ImportPath, err)
		return
	}
	u.files, u.pkg, u.info = files, pkg, info
	u.fns = callgraph.ScanPackage(fset, callgraph.Package{Files: files, Pkg: pkg, Info: info}, analyzed)
}

// load invokes `go list -export -deps -json` and splits the result into the
// target packages (those matched by the patterns) and an import-path ->
// export-data-file map covering every dependency.
func load(patterns []string, dir string) (targets []listPackage, exports map[string]string, err error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	exports = make(map[string]string)
	dec := json.NewDecoder(&stdout)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.DepOnly || lp.ImportPath == "unsafe" {
			continue
		}
		if len(lp.CgoFiles) > 0 {
			return nil, nil, fmt.Errorf("%s: cgo packages are not supported", lp.ImportPath)
		}
		targets = append(targets, lp)
	}
	return targets, exports, nil
}

// parseFiles parses a package's non-test Go files with comments.
func parseFiles(fset *token.FileSet, lp listPackage) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// Format renders findings one per line, with paths relative to dir when
// possible (matching go vet's output style).
func Format(w io.Writer, dir string, findings []Finding) {
	for _, f := range findings {
		pos := f.Pos
		if dir != "" {
			if rel, err := filepath.Rel(dir, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = rel
			}
		}
		fmt.Fprintf(w, "%s: %s (%s)\n", pos, f.Message, f.Analyzer)
	}
}
