package driver_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"procmine/internal/analysis"
	"procmine/internal/analysis/baseline"
	"procmine/internal/analysis/driver"
	"procmine/internal/analysis/passes/ctxflow"
	"procmine/internal/analysis/passes/ctxleak"
	"procmine/internal/analysis/passes/errlost"
	"procmine/internal/analysis/passes/hotalloc"
	"procmine/internal/analysis/passes/lockbalance"
	"procmine/internal/analysis/passes/lockheldblocking"
	"procmine/internal/analysis/passes/lockorder"
	"procmine/internal/analysis/passes/mapiterorder"
	"procmine/internal/analysis/passes/noglobals"
	"procmine/internal/analysis/passes/sharedcapture"
	"procmine/internal/analysis/passes/wgprotocol"
)

// suite is the full eleven-pass list, mirroring cmd/procmine-vet.
func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer(),
		ctxleak.Analyzer(),
		errlost.Analyzer(),
		hotalloc.Analyzer(),
		lockbalance.Analyzer(),
		lockheldblocking.Analyzer(),
		lockorder.Analyzer(),
		mapiterorder.Analyzer(),
		noglobals.Analyzer(),
		sharedcapture.Analyzer(),
		wgprotocol.Analyzer(),
	}
}

// TestSuiteEntryPoints pins the single entry point per analyzer: each
// sets exactly one of Run (per package) and RunModule (once per module).
func TestSuiteEntryPoints(t *testing.T) {
	for _, a := range suite() {
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("%s: sets Run=%v RunModule=%v, want exactly one", a.Name, a.Run != nil, a.RunModule != nil)
		}
	}
}

// TestSelfCheck runs the full eleven-pass suite over the whole module and
// requires it to be clean modulo the committed baseline, gated through
// baseline.Diff exactly as `-baseline check` is: the invariants the passes
// enforce hold in this tree, and CI keeps it that way. If this test fails,
// either fix the reported site, suppress it with a reasoned //lint:ignore
// directive, or (for deliberate debt) regenerate BASELINE.json with
// -baseline write.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list; skipped in -short mode")
	}
	res, err := driver.Run("", []string{"procmine/..."}, suite())
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	root := moduleRoot(t)
	base, err := baseline.Load(filepath.Join(root, "BASELINE.json"))
	if err != nil {
		t.Fatalf("loading baseline: %v", err)
	}
	fresh := baseline.Diff(base, root, res.Findings)
	for _, f := range baseline.Select(fresh, root, res.Findings) {
		t.Errorf("%s", f)
	}
	for _, e := range baseline.Stale(base, root, res.Findings) {
		t.Errorf("stale baseline entry: %s %s %q x%d (regenerate with -baseline write)", e.File, e.Pass, e.Message, e.Count)
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestRunFindsSeededViolation guards against the suite silently matching
// nothing: a synthetic analyzer that flags every file must produce findings
// over this very package.
func TestRunFindsSeededViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list; skipped in -short mode")
	}
	probe := &analysis.Analyzer{
		Name: "probe",
		Doc:  "flags every file, to prove the driver loads and runs passes",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				pass.Reportf(f.Pos(), "probe visited %s", pass.Pkg.Path())
			}
			return nil
		},
	}
	res, err := driver.Run("", []string{"procmine/internal/analysis/driver"}, []*analysis.Analyzer{probe})
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("probe analyzer produced no findings; driver is not visiting files")
	}
	for _, f := range res.Findings {
		if !strings.Contains(f.Message, "probe visited") {
			t.Errorf("unexpected finding %s", f)
		}
	}
}

// writeTwoPackageModule lays out a synthetic two-package module with one
// lock-order cycle (lockorder, module-level) and one leaked Lock
// (lockbalance, per-package), the second package importing the first and
// calling into the cycle so the module graph has a real cross-package edge.
func writeTwoPackageModule(t *testing.T, dir string) {
	t.Helper()
	files := map[string]string{
		"go.mod": "module crosstest\n\ngo 1.22\n",
		"internal/x/x.go": `package x

import "sync"

type Pair struct {
	A sync.Mutex
	B sync.Mutex
}

func (p *Pair) AB() {
	p.A.Lock()
	defer p.A.Unlock()
	p.B.Lock()
	p.B.Unlock()
}

func (p *Pair) BA() {
	p.B.Lock()
	defer p.B.Unlock()
	p.A.Lock()
	p.A.Unlock()
}

func (p *Pair) Leak() {
	p.A.Lock()
}
`,
		"internal/y/y.go": `package y

import "crosstest/internal/x"

func Use(p *x.Pair) {
	p.AB()
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrossPackageDeterminism runs the suite twice over the two-package
// module. Each run must resolve y's call into x as a static edge whose lock
// classes reach y's summary, and report the lock-order cycle and the leaked
// Lock; the two runs' findings must be byte-identical.
func TestCrossPackageDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list; skipped in -short mode")
	}
	dir := t.TempDir()
	writeTwoPackageModule(t, dir)
	var runs [2][]byte
	for i := range runs {
		res, err := driver.Run(dir, []string{"./..."}, suite())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Stats.Packages != 2 {
			t.Errorf("run %d analyzed %d package(s), want 2", i, res.Stats.Packages)
		}
		use := res.Graph.Functions["crosstest/internal/y.Use"]
		if use == nil {
			t.Fatalf("run %d: call graph has no node for y.Use", i)
		}
		got := strings.Join(use.Summary.AllAcquires, " ")
		if want := "(crosstest/internal/x.Pair).A (crosstest/internal/x.Pair).B"; got != want {
			t.Errorf("run %d: y.Use acquires %q across the import edge, want %q", i, got, want)
		}
		if countBy(res.Findings, "lockorder") != 1 || countBy(res.Findings, "lockbalance") != 1 {
			t.Fatalf("run %d: want one lockorder and one lockbalance finding, got:\n%v", i, res.Findings)
		}
		if runs[i], err = json.Marshal(res.Findings); err != nil {
			t.Fatal(err)
		}
	}
	if string(runs[0]) != string(runs[1]) {
		t.Errorf("findings differ between two runs over the same tree:\nfirst:  %s\nsecond: %s", runs[0], runs[1])
	}
}

func countBy(findings []driver.Finding, pass string) int {
	n := 0
	for _, f := range findings {
		if f.Analyzer == pass {
			n++
		}
	}
	return n
}
