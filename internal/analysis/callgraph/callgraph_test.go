package callgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildFixture typechecks one fixture package under testdata/src/<name> and
// returns its computed graph.
func buildFixture(t *testing.T, name string) *Graph {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", nil)}
	tpkg, err := conf.Check(name, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", name, err)
	}
	g := Build(fset, []Package{{Files: files, Pkg: tpkg, Info: info}})
	g.ComputeSummaries()
	return g
}

func fn(t *testing.T, g *Graph, key string) *Function {
	t.Helper()
	f := g.Functions[key]
	if f == nil {
		t.Fatalf("no node %q; have %v", key, g.Keys)
	}
	return f
}

// edges returns the deduplicated "kind callee" strings of a node's calls.
func edges(f *Function) map[string]bool {
	out := make(map[string]bool)
	for _, c := range f.Calls {
		out[c.Kind.String()+" "+c.Callee] = true
	}
	return out
}

func TestGoldenGraph(t *testing.T) {
	g := buildFixture(t, "golden")

	// Direct call and method call resolve statically; the method call by
	// declared receiver type with the pointer stripped.
	caller := fn(t, g, "golden.Caller")
	es := edges(caller)
	for _, want := range []string{
		"static golden.leaf",
		"static (golden.Box).Get",
	} {
		if !es[want] {
			t.Errorf("Caller: missing edge %q; have %v", want, es)
		}
	}

	// The function literal's call is attached to the enclosing decl,
	// flagged FromLit.
	litHolder := fn(t, g, "golden.LitHolder")
	var sawLitCall bool
	for _, c := range litHolder.Calls {
		if c.Callee == "golden.leaf" && c.FromLit {
			sawLitCall = true
		}
	}
	if !sawLitCall {
		t.Errorf("LitHolder: literal call to leaf not attached/flagged; calls %v", edges(litHolder))
	}

	// An interface method call is an interface edge attributed to the
	// interface method; a plain func-value call is unresolved; a call
	// through a named func type is attributed external.
	dyn := fn(t, g, "golden.Dynamic")
	es = edges(dyn)
	if !es["interface (golden.Doer).Do"] {
		t.Errorf("Dynamic: missing interface edge; have %v", es)
	}
	var unresolved, named bool
	for e := range es {
		if strings.HasPrefix(e, "unresolved indirect:") {
			unresolved = true
		}
		if e == "external golden.NamedFn" {
			named = true
		}
	}
	if !unresolved {
		t.Errorf("Dynamic: plain func-value call not unresolved; have %v", es)
	}
	if !named {
		t.Errorf("Dynamic: named-func-type call not attributed; have %v", es)
	}

	// External stdlib call.
	if es := edges(fn(t, g, "golden.Sleeper")); !es["external time.Sleep"] {
		t.Errorf("Sleeper: missing external time.Sleep edge; have %v", es)
	}
}

// TestMethodValues pins the resolve-or-unresolved contract for method
// values: `f := s.Method; f()` loses the callee syntactically and must
// surface as an unresolved edge (counted by the -graph unresolved gate,
// never misattributed), whether invoked plainly or deferred; deferring the
// method directly keeps a static edge with the Deferred flag.
func TestMethodValues(t *testing.T) {
	g := buildFixture(t, "methodval")

	val := fn(t, g, "methodval.Value")
	var unresolved, static bool
	for _, c := range val.Calls {
		if c.Kind == EdgeUnresolved {
			unresolved = true
		}
		if c.Callee == "(methodval.S).Target" {
			static = true
		}
	}
	if !unresolved {
		t.Errorf("Value: method-value call not unresolved; calls %v", edges(val))
	}
	if static {
		t.Errorf("Value: method-value call misattributed to Target; calls %v", edges(val))
	}

	dv := fn(t, g, "methodval.DeferredValue")
	var deferredUnresolved bool
	for _, c := range dv.Calls {
		if c.Kind == EdgeUnresolved && c.Deferred {
			deferredUnresolved = true
		}
	}
	if !deferredUnresolved {
		t.Errorf("DeferredValue: deferred method value not an unresolved deferred edge; calls %+v", dv.Calls)
	}

	dm := fn(t, g, "methodval.DeferredMethod")
	var deferredStatic bool
	for _, c := range dm.Calls {
		if c.Kind == EdgeStatic && c.Deferred && c.Callee == "(methodval.S).Target" {
			deferredStatic = true
		}
	}
	if !deferredStatic {
		t.Errorf("DeferredMethod: direct deferred method not a static deferred edge; calls %+v", dm.Calls)
	}
}

func TestSummaryFixpoint(t *testing.T) {
	g := buildFixture(t, "golden")

	// Sleeper blocks via intrinsic; Caller is transitively clean.
	if s := fn(t, g, "golden.Sleeper").Summary; !s.MayBlock {
		t.Error("Sleeper: MayBlock = false, want true")
	}
	if s := fn(t, g, "golden.Caller").Summary; s.MayBlock {
		t.Errorf("Caller: MayBlock = true (witness %q), want false", s.BlockWitness)
	}

	// Transitive propagation: ViaSleep -> Sleeper -> time.Sleep, with a
	// chain witness.
	via := fn(t, g, "golden.ViaSleep").Summary
	if !via.MayBlock {
		t.Error("ViaSleep: MayBlock = false, want true")
	}
	if !strings.Contains(via.BlockWitness, "Sleeper") {
		t.Errorf("ViaSleep: witness %q does not name the blocking callee", via.BlockWitness)
	}

	// Channel ops block; go-detached bodies do not block the spawner but
	// their allocations count.
	if s := fn(t, g, "golden.ChanUser").Summary; !s.MayBlock {
		t.Error("ChanUser: MayBlock = false, want true")
	}
	spawn := fn(t, g, "golden.Spawner").Summary
	if spawn.MayBlock {
		t.Errorf("Spawner: MayBlock = true (witness %q); go-detached work must not block the spawner", spawn.BlockWitness)
	}
	if !spawn.Allocates {
		t.Error("Spawner: Allocates = false; detached allocations still allocate")
	}

	// Mutual recursion converges and keeps local facts.
	if s := fn(t, g, "golden.Even").Summary; s.MayBlock {
		t.Error("Even: MayBlock = true, want false (pure recursion)")
	}
	recA := fn(t, g, "golden.RecBlockA").Summary
	recB := fn(t, g, "golden.RecBlockB").Summary
	if !recA.MayBlock || !recB.MayBlock {
		t.Errorf("recursive blocking pair: MayBlock A=%v B=%v, want true/true", recA.MayBlock, recB.MayBlock)
	}

	// Allocation facts: direct, in-loop, and via callee-in-loop.
	al := fn(t, g, "golden.AllocLoop").Summary
	if !al.Allocates || !al.AllocsInLoop {
		t.Errorf("AllocLoop: Allocates=%v AllocsInLoop=%v, want true/true", al.Allocates, al.AllocsInLoop)
	}
	ai := fn(t, g, "golden.AllocIndirect").Summary
	if !ai.Allocates || !ai.AllocsInLoop {
		t.Errorf("AllocIndirect: Allocates=%v AllocsInLoop=%v, want true/true (in-loop call to allocating callee)", ai.Allocates, ai.AllocsInLoop)
	}
	if s := fn(t, g, "golden.AllocOnce").Summary; !s.Allocates || s.AllocsInLoop {
		t.Errorf("AllocOnce: Allocates=%v AllocsInLoop=%v, want true/false", s.Allocates, s.AllocsInLoop)
	}

	// Lock effects: the acquire-only helper nets "recv.mu"; a balanced
	// method nets nothing.
	lk := fn(t, g, "(golden.Guarded).lockHalf").Summary
	if len(lk.Acquires) != 1 || lk.Acquires[0] != "recv.mu" {
		t.Errorf("lockHalf: Acquires = %v, want [recv.mu]", lk.Acquires)
	}
	bal := fn(t, g, "(golden.Guarded).balanced").Summary
	if len(bal.Acquires) != 0 || len(bal.Releases) != 0 {
		t.Errorf("balanced: Acquires=%v Releases=%v, want empty", bal.Acquires, bal.Releases)
	}

	// Ctx propagation: WithCtxGood threads ctx to its blocking callee,
	// WithCtxBad drops it.
	if s := fn(t, g, "golden.WithCtxGood").Summary; !s.PropagatesCtx {
		t.Error("WithCtxGood: PropagatesCtx = false, want true")
	}
	if s := fn(t, g, "golden.WithCtxBad").Summary; s.PropagatesCtx {
		t.Error("WithCtxBad: PropagatesCtx = true, want false (drops ctx before blocking callee)")
	}

	// Hot annotation.
	if !fn(t, g, "golden.HotRoot").Hot {
		t.Error("HotRoot: Hot = false, want true (//procmine:hot)")
	}
	if fn(t, g, "golden.Caller").Hot {
		t.Error("Caller: Hot = true, want false")
	}
}

func TestHotReachable(t *testing.T) {
	g := buildFixture(t, "golden")
	hot := g.HotReachable()
	for _, want := range []string{"golden.HotRoot", "golden.AllocLoop"} {
		if !hot[want] {
			t.Errorf("HotReachable: missing %s; got %v", want, hot)
		}
	}
	if hot["golden.Sleeper"] {
		t.Error("HotReachable: Sleeper is not reachable from a hot root")
	}
}

func TestWriteDOTDeterministic(t *testing.T) {
	g := buildFixture(t, "golden")
	var a, b strings.Builder
	if err := g.WriteDOT(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("WriteDOT output is not deterministic")
	}
	out := a.String()
	if !strings.Contains(out, `kind="unresolved"`) {
		t.Error("DOT output does not mark the unresolved edge")
	}
	if !strings.Contains(out, `kind="static"`) {
		t.Error("DOT output has no static edges")
	}
}

func TestDisplayKey(t *testing.T) {
	cases := map[string]string{
		"procmine/internal/serve.New":            "serve.New",
		"(procmine/internal/serve.shard).ingest": "(serve.shard).ingest",
		"time.Sleep":                             "time.Sleep",
		"(sync.WaitGroup).Wait":                  "(sync.WaitGroup).Wait",
	}
	for in, want := range cases {
		if got := DisplayKey(in); got != want {
			t.Errorf("DisplayKey(%q) = %q, want %q", in, got, want)
		}
	}
}
