package lockorder_test

import (
	"strings"
	"testing"

	"procmine/internal/analysis/analysistest"
	"procmine/internal/analysis/passes/lockorder"
)

// TestLockOrder covers the four fixture shapes: the two-lock ABBA with both
// witness chains (a, where the deferred unlock keeps the region open), the
// three-lock cycle with an interprocedural edge (b), the helper-released
// region that breaks the pair (c, clean), and the suppressed cycle (d,
// silent).
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer(), "a", "b", "c", "d")
}

// TestCycleMessage pins the full diagnostic for the ABBA fixture: one
// cycle, both witness chains, the fix hint, and an anchor in the fixture.
func TestCycleMessage(t *testing.T) {
	g := analysistest.BuildFixtureGraph(t, "testdata", "a")
	findings := lockorder.Analyzer().RunModule(g)
	if len(findings) != 1 {
		t.Fatalf("reported %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	for _, frag := range []string{
		"potential deadlock: lock-order cycle (a.pair).a -> (a.pair).b -> (a.pair).a",
		"(a.pair).ab locks (a.pair).b while holding (a.pair).a",
		"(a.pair).ba locks (a.pair).a while holding (a.pair).b",
		"establish a single canonical acquisition order",
	} {
		if !strings.Contains(f.Message, frag) {
			t.Errorf("message missing %q:\n%s", frag, f.Message)
		}
	}
	if !strings.HasSuffix(f.Pos.Filename, "a.go") || f.Pos.Line == 0 {
		t.Errorf("anchor not in fixture: %+v", f.Pos)
	}
}
