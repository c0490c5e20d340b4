// Package analysistest runs an analyzer over small fixture packages and
// checks its diagnostics against expectations embedded in the fixtures, in
// the style of golang.org/x/tools/go/analysis/analysistest (reimplemented
// here because procmine vendors no third-party modules).
//
// Fixtures live under testdata/src/<pkg>/ and may import only the standard
// library (their imports resolve through the gc importer's default lookup;
// module-internal packages have no export data there). Expected findings
// are trailing comments of the form
//
//	code() // want "regexp"
//	code() // want "regexp1" "regexp2"
//
// where each quoted string is a regular expression matched against a
// diagnostic message reported on that line. Lines without a want comment
// must produce no diagnostics. Suppression directives (//lint:ignore
// procmine <reason>) are honored exactly as in the real driver, so a
// fixture line carrying a directive and no want comment proves the escape
// hatch works.
//
// Each analyzer runs through the entry point the driver uses: Run for
// per-package passes, RunModule over the fixture's call graph for
// module-level ones.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"procmine/internal/analysis"
	"procmine/internal/analysis/callgraph"
)

// Run applies a to each fixture package under dir/src and reports
// mismatches between reported and expected diagnostics as test errors.
// Per-package analyzers see the fixtures with ForceScope set, so their
// package-path scoping predicates treat them as in scope.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runPackage(t, filepath.Join(dir, "src", pkg), pkg, a, true)
	}
}

// RunUnscoped is Run without ForceScope: the fixture keeps its synthetic
// import path (e.g. "a"), which falls outside every analyzer's
// package-path predicate. Use it to prove that scoping rules exempt
// out-of-scope packages.
func RunUnscoped(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runPackage(t, filepath.Join(dir, "src", pkg), pkg, a, false)
	}
}

// loadPackage parses and type-checks one fixture package.
func loadPackage(t *testing.T, pkgDir, pkgPath string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(pkgDir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", pkgDir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", nil)}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", pkgPath, err)
	}
	return fset, files, tpkg, info
}

// BuildFixtureGraph type-checks one fixture package under dir/src and
// returns its summarized call graph, for tests that drive module-level
// (RunModule) entry points directly.
func BuildFixtureGraph(t *testing.T, dir, pkg string) *callgraph.Graph {
	t.Helper()
	fset, files, tpkg, info := loadPackage(t, filepath.Join(dir, "src", pkg), pkg)
	g := callgraph.Build(fset, []callgraph.Package{{Files: files, Pkg: tpkg, Info: info}})
	g.ComputeSummaries()
	return g
}

func runPackage(t *testing.T, pkgDir, pkgPath string, a *analysis.Analyzer, forceScope bool) {
	t.Helper()
	fset, files, tpkg, info := loadPackage(t, pkgDir, pkgPath)
	// Every fixture run gets an interprocedural view of itself, exactly as
	// the real driver provides one, so the graph-consuming passes are
	// testable with the same harness as the intra-function ones.
	g := callgraph.Build(fset, []callgraph.Package{{Files: files, Pkg: tpkg, Info: info}})
	g.ComputeSummaries()
	got := make(map[key][]string)
	if a.RunModule != nil {
		sup := analysis.CollectSuppressions(fset, files)
		for _, mf := range a.RunModule(g) {
			if !sup.SuppressesAt(mf.Pos, a.Name) {
				k := key{mf.Pos.Filename, mf.Pos.Line}
				got[k] = append(got[k], mf.Message)
			}
		}
	} else {
		pass := &analysis.Pass{
			Fset:       fset,
			Files:      files,
			Pkg:        tpkg,
			TypesInfo:  info,
			ForceScope: forceScope,
			Facts:      g,
		}
		diags, err := analysis.Run(a, pass)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
		}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			k := key{pos.Filename, pos.Line}
			got[k] = append(got[k], d.Message)
		}
	}

	wants := collectWants(t, fset, files)
	// Every want must be matched by exactly one diagnostic on its line.
	for k, res := range wants {
		msgs := got[k]
		for _, re := range res {
			idx := -1
			for i, m := range msgs {
				if re.MatchString(m) {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Errorf("%s:%d: no diagnostic matching %q (got %q)", k.file, k.line, re, msgs)
				continue
			}
			msgs = append(msgs[:idx], msgs[idx+1:]...)
		}
		if len(msgs) > 0 {
			t.Errorf("%s:%d: unexpected extra diagnostics %q", k.file, k.line, msgs)
		}
		delete(got, k)
	}
	// Anything left was not expected at all.
	var leftover []string
	for k, msgs := range got {
		for _, m := range msgs {
			leftover = append(leftover, fmt.Sprintf("%s:%d: unexpected diagnostic %q", k.file, k.line, m))
		}
	}
	sort.Strings(leftover)
	for _, l := range leftover {
		t.Error(l)
	}
}

type key struct {
	file string
	line int
}

// collectWants extracts the expected-diagnostic regexps per line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[key][]*regexp.Regexp {
	t.Helper()
	wantRE := regexp.MustCompile(`// want (.*)$`)
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, q := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", k.file, k.line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", k.file, k.line, pat, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	return wants
}

// splitQuoted splits `"a" "b \" c"` into its quoted segments.
func splitQuoted(s string) []string {
	var out []string
	for i := 0; i < len(s); i++ {
		if s[i] != '"' {
			continue
		}
		j := i + 1
		for ; j < len(s); j++ {
			if s[j] == '\\' {
				j++
				continue
			}
			if s[j] == '"' {
				break
			}
		}
		if j >= len(s) {
			break
		}
		out = append(out, s[i:j+1])
		i = j
	}
	return out
}
