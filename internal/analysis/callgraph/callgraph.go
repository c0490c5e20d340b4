// Package callgraph builds a module-wide static call graph over the go/ast
// and go/types infrastructure the procmine-vet driver already produces, and
// derives per-function summaries from it by a bottom-up fixpoint over
// strongly connected components. It is the interprocedural substrate for
// the lockheldblocking, ctxleak, and hotalloc passes: the bugs those passes
// hunt — blocking I/O under a shard mutex, a dropped request context, an
// allocation storm on the mining hot path — span function boundaries that
// the intra-function CFG passes cannot see.
//
// Resolution rules, chosen for determinism and a conservative
// no-false-positive bias:
//
//   - Direct calls and method calls resolve to their *types.Func; method
//     calls resolve by the declared receiver type (pointer stripped), not by
//     dynamic dispatch.
//   - Function literals are attached to their enclosing declaration: a
//     literal's calls, allocations, and channel operations contribute to the
//     enclosing function's node (flagged FromLit so per-site passes can
//     exclude them), because the literal has no name of its own to summarize
//     under.
//   - Calls through interface methods are recorded as edges attributed to
//     the interface method object (kind "interface"); their behavior comes
//     from the intrinsics table or defaults to unknown-but-harmless.
//   - Calls to functions outside the analyzed package set (the standard
//     library) are "external" edges, classified by the intrinsics table.
//   - Calls through plain function values are "unresolved" edges: nothing
//     is known about the callee, and the conservative default in every
//     summary direction is "no effect" (so unresolved calls can never
//     manufacture a finding). Calls through values of a *named* function
//     type (e.g. context.CancelFunc) are attributed to the type name
//     instead, since the name is a stable, classifiable identity.
//
// The summary engine (summary.go) propagates four facts bottom-up over the
// static edges: mayBlock, allocates (plus allocates-inside-loops),
// propagatesCtx, and the net mutex acquire/release effect keyed on the
// receiver-relative paths of the syncops canonicalization.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"procmine/internal/analysis/internal/syncops"
)

// EdgeKind classifies how a call site was resolved.
type EdgeKind int

const (
	// EdgeStatic is a direct call to a function or method declared in the
	// analyzed package set (or known through imported summaries).
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a dynamic call attributed to an interface method.
	EdgeInterface
	// EdgeExternal is a direct call to a function outside the analyzed set
	// (typically the standard library), classified by intrinsics.
	EdgeExternal
	// EdgeUnresolved is a call through a plain function value; nothing is
	// known about the callee.
	EdgeUnresolved
)

// String names the kind as it appears in the DOT dump.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeExternal:
		return "external"
	case EdgeUnresolved:
		return "unresolved"
	}
	return "?"
}

// Call is one call site, attributed to the function whose body contains it.
type Call struct {
	// Kind is the resolution class.
	Kind EdgeKind
	// Callee is the target key (FuncKey form) for resolved calls, the
	// attributed name for interface/named-type calls, or a signature
	// descriptor for unresolved calls.
	Callee string
	// CalleeFunc is the resolved callee object, nil for unresolved calls.
	CalleeFunc *types.Func
	// Site is the call expression.
	Site *ast.CallExpr
	// Pos locates the call.
	Pos token.Pos
	// Position is Pos rendered against the building FileSet, the form
	// module-level passes report in.
	Position token.Position
	// InLoop reports the call is lexically inside a for/range statement of
	// its innermost enclosing function body (declaration or literal).
	InLoop bool
	// FromLit reports the call sits inside a function literal attached to
	// this declaration rather than in the declaration's own body.
	FromLit bool
	// Detached reports the call runs on another goroutine: it is the call
	// operand of a go statement, or sits inside a function literal that is
	// itself the operand of one.
	Detached bool
	// Deferred reports the call is the operand of a defer statement (it
	// still runs on this goroutine, at exit).
	Deferred bool
	// PassesCtx reports some argument has type context.Context.
	PassesCtx bool
	// RecvKey is the syncops canonical key of the method receiver
	// expression, when the call is a method call with a canonicalizable
	// receiver; "" otherwise. lockheldblocking uses it to match a callee's
	// receiver-relative lock effect against the held mutex.
	RecvKey string
}

// AllocSite is one allocation in a function body: a composite literal, a
// make or new call, or an append (any append may grow).
type AllocSite struct {
	// Pos locates the allocation.
	Pos token.Pos
	// Position is Pos rendered against the building FileSet (see
	// Call.Position).
	Position token.Position
	// What names the allocation form for diagnostics.
	What string
	// InLoop reports the site is lexically inside a for/range statement of
	// its innermost enclosing function body.
	InLoop bool
	// FromLit reports the site is inside an attached function literal.
	FromLit bool
}

// blockOp is a local channel/select operation that can block the goroutine.
type blockOp struct {
	pos  token.Pos
	what string // "channel send", "channel receive", ...
}

// Function is one call-graph node: a function or method declaration in the
// analyzed package set, with the facts collected from its body (and from
// its attached literals).
type Function struct {
	// Key is the canonical node name; see FuncKey.
	Key string
	// Obj is the declared function object.
	Obj *types.Func
	// Decl is the declaration; its body was scanned for the facts below.
	Decl *ast.FuncDecl
	// PkgPath is the declaring package's import path.
	PkgPath string
	// Hot reports a //procmine:hot annotation on the declaration: the
	// function roots a hot path that hotalloc keeps allocation-free.
	Hot bool
	// TakesCtx reports a context.Context parameter.
	TakesCtx bool
	// Calls are the call sites in body order (literal-attached sites after
	// their lexical position, still deterministic).
	Calls []Call
	// Allocs are the allocation sites in body order.
	Allocs []AllocSite
	// Summary is filled by ComputeSummaries.
	Summary Summary

	blockOps []blockOp      // local channel/select operations
	lockNet  map[string]int // relative mutex path -> #Lock - #Unlock

	// lockSites are the declaration body's Lock/RLock acquisition sites
	// (literal-attached, deferred, and go-detached acquisitions excluded),
	// the raw material of the lock-order analysis in lockorder.go.
	lockSites []LockSite
	// litLockClasses are the lock classes acquired inside non-detached
	// attached function literals; they contribute to AllAcquires but open
	// no held region of their own (the literal has no CFG slot here).
	litLockClasses map[string]bool

	// info is the declaring package's type information, retained so
	// ComputeSummaries can run the CFG-based held-set analysis.
	info *types.Info
}

// Summary is the per-function fact set propagated bottom-up over SCCs.
type Summary struct {
	// MayBlock: the function can block its goroutine — channel operations,
	// a select without default, a blocking intrinsic (I/O, time.Sleep,
	// sync Wait), or a call to a mayBlock function.
	MayBlock bool
	// BlockWitness explains MayBlock with the first (source-order) cause,
	// expanded through acyclic call chains.
	BlockWitness string
	// Allocates: the function allocates (composite literal, make, new,
	// append) directly or via a callee.
	Allocates bool
	// AllocsInLoop: some allocation happens inside a loop — an in-loop
	// site, an in-loop call to an allocating callee, or any call to a
	// callee that itself allocates in a loop.
	AllocsInLoop bool
	// PropagatesCtx: the function has a ctx parameter and every
	// (non-detached, non-literal) call to a mayBlock callee passes a
	// context value on.
	PropagatesCtx bool
	// Acquires lists receiver/parameter-relative mutex paths the function
	// net-acquires (locks without releasing), e.g. "recv.mu".
	Acquires []string
	// Releases lists paths the function net-releases.
	Releases []string
	// AllAcquires lists the global lock classes (see LockClassOf) this
	// function may acquire, directly or through any non-detached,
	// non-deferred static callee, sorted.
	AllAcquires []string
	// AcqWitness explains, per class in AllAcquires, how the function
	// reaches an acquisition ("locks (serve.shard).mu" or "calls
	// (serve.shard).stats, which locks (serve.shard).mu").
	AcqWitness map[string]string
	// Pairs are the ordered acquisition pairs observed in this function's
	// body: Second was (may-)acquired while First was held.
	Pairs []LockPair
}

// Package is one analyzed package handed to Build. All packages must share
// one token.FileSet.
type Package struct {
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Graph is the call graph of a set of packages sharing one FileSet.
type Graph struct {
	// Fset maps positions for diagnostics.
	Fset *token.FileSet
	// Functions indexes nodes by key.
	Functions map[string]*Function
	// Keys is the sorted node list, for deterministic iteration.
	Keys []string

	hotReach map[string]bool // lazily computed hot-reachable set
}

// HotAnnotation is the doc-comment directive marking a hot-path root.
const HotAnnotation = "//procmine:hot"

// Build constructs the call graph of the given packages. Summaries are not
// computed; call ComputeSummaries before querying them.
func Build(fset *token.FileSet, pkgs []Package) *Graph {
	g := NewGraph(fset)
	analyzed := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		analyzed[p.Pkg.Path()] = true
	}
	for _, p := range pkgs {
		g.Install(ScanPackage(fset, p, analyzed))
	}
	g.Finalize()
	return g
}

// NewGraph returns an empty graph over fset. Callers add nodes with Install
// and must call Finalize before using the graph.
func NewGraph(fset *token.FileSet) *Graph {
	return &Graph{
		Fset:      fset,
		Functions: make(map[string]*Function),
	}
}

// ScanPackage scans one package's declarations into call-graph nodes.
// analyzed is the full set of import paths that will be part of the graph:
// calls into it are static edges, calls outside it are
// external. The scan touches only p and fset, so distinct packages can be
// scanned concurrently as long as they share fset.
func ScanPackage(fset *token.FileSet, p Package, analyzed map[string]bool) []*Function {
	var out []*Function
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fn := &Function{
				Key:      FuncKey(obj),
				Obj:      obj,
				Decl:     fd,
				PkgPath:  p.Pkg.Path(),
				Hot:      hasHotAnnotation(fd),
				TakesCtx: takesCtx(obj),
				lockNet:  make(map[string]int),
				info:     p.Info,
			}
			sc := &scanner{fset: fset, fn: fn, info: p.Info, analyzed: analyzed}
			sc.block(fd.Body, scanCtx{})
			out = append(out, fn)
		}
	}
	return out
}

// Install adds scanned nodes to the graph.
func (g *Graph) Install(fns []*Function) {
	for _, fn := range fns {
		g.Functions[fn.Key] = fn
	}
}

// Finalize sorts the node index; call it once after all Install calls and before ComputeSummaries or traversal.
func (g *Graph) Finalize() {
	g.Keys = make([]string, 0, len(g.Functions))
	for k := range g.Functions {
		g.Keys = append(g.Keys, k)
	}
	sort.Strings(g.Keys)
}

// HotReachable returns the set of function keys reachable from
// //procmine:hot roots over static edges, the roots included. Detached
// (go-spawned) calls are followed: a worker goroutine spawned by a hot scan
// is hot work — the parallel follows-scan does exactly that.
func (g *Graph) HotReachable() map[string]bool {
	if g.hotReach != nil {
		return g.hotReach
	}
	reach := make(map[string]bool)
	var visit func(key string)
	visit = func(key string) {
		if reach[key] {
			return
		}
		fn := g.Functions[key]
		if fn == nil {
			return
		}
		reach[key] = true
		for _, c := range fn.Calls {
			if c.Kind == EdgeStatic {
				visit(c.Callee)
			}
		}
	}
	for _, k := range g.Keys {
		if g.Functions[k].Hot {
			visit(k)
		}
	}
	g.hotReach = reach
	return reach
}

// Lookup returns the node for a declared function object, or nil.
func (g *Graph) Lookup(obj *types.Func) *Function {
	if obj == nil {
		return nil
	}
	return g.Functions[FuncKey(obj)]
}

// FuncKey names a function object canonically: "pkgpath.Func" for package
// functions, "(pkgpath.Type).Method" for methods with the pointer stripped
// from the receiver, and "(pkgpath.Iface).Method" for interface methods.
func FuncKey(fn *types.Func) string {
	fn = fn.Origin()
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, okp := t.(*types.Pointer); okp {
			t = p.Elem()
		}
		switch t := t.(type) {
		case *types.Named:
			obj := t.Obj()
			if obj.Pkg() != nil {
				return "(" + obj.Pkg().Path() + "." + obj.Name() + ")." + fn.Name()
			}
			return "(" + obj.Name() + ")." + fn.Name()
		case *types.Interface:
			// Unnamed interface receiver: fall back to the declaring
			// package.
			if fn.Pkg() != nil {
				return "(" + fn.Pkg().Path() + ".interface)." + fn.Name()
			}
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// DisplayKey shortens a key for diagnostics: package paths are reduced to
// their last element ("(serve.shard).ingest" rather than the full import
// path).
func DisplayKey(key string) string {
	short := func(path string) string {
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	if strings.HasPrefix(key, "(") {
		if i := strings.Index(key, ")."); i > 0 {
			return "(" + short(key[1:i]) + ")" + key[i+1:]
		}
	}
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// hasHotAnnotation reports a //procmine:hot line in the declaration's doc
// comment.
func hasHotAnnotation(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == HotAnnotation {
			return true
		}
	}
	return false
}

// takesCtx reports a context.Context parameter in the signature.
func takesCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// scanCtx carries the lexical context of a body walk.
type scanCtx struct {
	inLoop   bool
	fromLit  bool
	detached bool
}

// scanner walks one declaration body (and its literals) collecting facts.
type scanner struct {
	fset     *token.FileSet
	fn       *Function
	info     *types.Info
	analyzed map[string]bool
}

// block walks a statement or expression subtree.
func (s *scanner) block(n ast.Node, c scanCtx) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		s.block(n.Body, scanCtx{fromLit: true, detached: c.detached})
		return
	case *ast.ForStmt:
		s.block(n.Init, c)
		s.block(n.Cond, c)
		loop := c
		loop.inLoop = true
		s.block(n.Post, loop)
		s.block(n.Body, loop)
		return
	case *ast.RangeStmt:
		s.block(n.X, c)
		if t := s.info.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok && !c.detached {
				s.fn.blockOps = append(s.fn.blockOps, blockOp{pos: n.Pos(), what: "ranges over a channel"})
			}
		}
		loop := c
		loop.inLoop = true
		s.block(n.Key, loop)
		s.block(n.Value, loop)
		s.block(n.Body, loop)
		return
	case *ast.GoStmt:
		det := c
		det.detached = true
		s.call(n.Call, det)
		return
	case *ast.DeferStmt:
		dc := c
		s.callWith(n.Call, dc, false, true)
		return
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range n.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && !c.detached {
			s.fn.blockOps = append(s.fn.blockOps, blockOp{pos: n.Pos(), what: "selects without a default"})
		}
		// Walk clause bodies; comm statements of a defaulted select are
		// non-blocking by construction, so suppress their channel-op
		// classification by walking them detachedly only for block ops...
		// Simplicity wins: clauses of a select never block (the select
		// chooses a ready one), so their comm ops are skipped and only the
		// bodies are walked normally.
		for _, cl := range n.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm != nil {
				s.commExprs(cc.Comm, c)
			}
			for _, st := range cc.Body {
				s.block(st, c)
			}
		}
		return
	case *ast.SendStmt:
		if !c.detached {
			s.fn.blockOps = append(s.fn.blockOps, blockOp{pos: n.Pos(), what: "sends on a channel"})
		}
		s.block(n.Chan, c)
		s.block(n.Value, c)
		return
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !c.detached {
			s.fn.blockOps = append(s.fn.blockOps, blockOp{pos: n.Pos(), what: "receives from a channel"})
		}
		s.block(n.X, c)
		return
	case *ast.CallExpr:
		s.call(n, c)
		return
	case *ast.CompositeLit:
		s.fn.Allocs = append(s.fn.Allocs, AllocSite{
			Pos: n.Pos(), Position: s.fset.Position(n.Pos()),
			What: "composite literal", InLoop: c.inLoop, FromLit: c.fromLit,
		})
		for _, e := range n.Elts {
			s.block(e, c)
		}
		return
	}
	// Generic traversal for everything else, one level at a time so the
	// scanCtx stays accurate.
	children(n, func(child ast.Node) {
		s.block(child, c)
	})
}

// commExprs walks the channel expressions of a select comm statement
// without classifying its channel operation as blocking (the select picks a
// ready case).
func (s *scanner) commExprs(comm ast.Stmt, c scanCtx) {
	switch st := comm.(type) {
	case *ast.SendStmt:
		s.block(st.Chan, c)
		s.block(st.Value, c)
	case *ast.ExprStmt:
		if u, ok := st.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			s.block(u.X, c)
			return
		}
		s.block(st.X, c)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			if u, ok := r.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				s.block(u.X, c)
				continue
			}
			s.block(r, c)
		}
		for _, l := range st.Lhs {
			s.block(l, c)
		}
	default:
		s.block(comm, c)
	}
}

// call records one call expression and walks its operands.
func (s *scanner) call(call *ast.CallExpr, c scanCtx) {
	s.callWith(call, c, c.detached, false)
}

// callWith records the call with explicit detachment/deferral and walks the
// arguments (argument evaluation always happens on the calling goroutine).
func (s *scanner) callWith(call *ast.CallExpr, c scanCtx, detached, deferred bool) {
	fun := ast.Unparen(call.Fun)

	// A called function literal ("go func() {...}()" or an immediately
	// invoked one) is not an edge: its body belongs to this node.
	if lit, ok := fun.(*ast.FuncLit); ok {
		s.block(lit.Body, scanCtx{fromLit: true, detached: detached || c.detached})
		for _, a := range call.Args {
			s.block(a, c)
		}
		return
	}

	// Conversions are not calls.
	if tv, ok := s.info.Types[fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			s.block(a, c)
		}
		return
	}

	// Builtins: count the allocating ones, skip the rest.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := s.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				s.fn.Allocs = append(s.fn.Allocs, AllocSite{
					Pos: call.Pos(), Position: s.fset.Position(call.Pos()),
					What: b.Name(), InLoop: c.inLoop, FromLit: c.fromLit,
				})
			}
			for _, a := range call.Args {
				s.block(a, c)
			}
			return
		}
	}

	cl := Call{
		Site: call, Pos: call.Pos(), Position: s.fset.Position(call.Pos()),
		InLoop: c.inLoop, FromLit: c.fromLit, Detached: detached || c.detached, Deferred: deferred,
	}
	for _, a := range call.Args {
		if t := s.info.TypeOf(a); t != nil && isContextType(t) {
			cl.PassesCtx = true
		}
	}

	callee := s.calleeFunc(fun)
	switch {
	case callee != nil:
		cl.CalleeFunc = callee
		cl.Callee = FuncKey(callee)
		sig, _ := callee.Type().(*types.Signature)
		switch {
		case sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()):
			cl.Kind = EdgeInterface
		case callee.Pkg() != nil && s.analyzed[callee.Pkg().Path()]:
			cl.Kind = EdgeStatic
		default:
			cl.Kind = EdgeExternal
		}
		if sel, ok := fun.(*ast.SelectorExpr); ok && sig != nil && sig.Recv() != nil {
			if key, _, ok := syncops.KeyOf(s.info, sel.X); ok {
				cl.RecvKey = key
			}
		}
		// Mutex operations feed the net acquire/release effect when the
		// receiver is rooted at this function's receiver or a parameter.
		if op, ok := syncops.Classify(s.info, call); ok {
			if rel, ok := s.relativePath(op); ok {
				switch op.Kind {
				case syncops.Lock, syncops.RLock:
					s.fn.lockNet[rel]++
				case syncops.Unlock, syncops.RUnlock:
					s.fn.lockNet[rel]--
				}
			}
			// Acquisitions also feed the lock-order analysis, keyed on
			// their global lock class. Detached acquisitions belong to
			// another goroutine's order; deferred ones run at exit, after
			// everything they could pair with.
			if (op.Kind == syncops.Lock || op.Kind == syncops.RLock) && !cl.Detached && !deferred {
				class, classable := LockClassOf(s.info, op.Recv)
				if c.fromLit {
					if classable {
						if s.fn.litLockClasses == nil {
							s.fn.litLockClasses = make(map[string]bool)
						}
						s.fn.litLockClasses[class] = true
					}
				} else {
					s.fn.lockSites = append(s.fn.lockSites, LockSite{
						Class: class, Key: op.Key, Kind: op.Kind,
						Call: call, Pos: call.Pos(), Position: s.fset.Position(call.Pos()),
					})
				}
			}
		}
	default:
		// A call through a function value. A named function type is a
		// stable identity (context.CancelFunc); attribute it. Anything
		// else is unresolved.
		if t := s.info.TypeOf(fun); t != nil {
			if named, ok := t.(*types.Named); ok {
				cl.Kind = EdgeExternal
				obj := named.Obj()
				if obj.Pkg() != nil {
					cl.Callee = obj.Pkg().Path() + "." + obj.Name()
				} else {
					cl.Callee = obj.Name()
				}
			} else {
				cl.Kind = EdgeUnresolved
				cl.Callee = "indirect:" + t.String()
			}
		} else {
			cl.Kind = EdgeUnresolved
			cl.Callee = "indirect:?"
		}
	}
	s.fn.Calls = append(s.fn.Calls, cl)

	// Walk the callee expression (a selector's base may itself contain
	// calls) and the arguments.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		s.block(sel.X, c)
	} else if _, ok := fun.(*ast.Ident); !ok {
		s.block(fun, c)
	}
	for _, a := range call.Args {
		s.block(a, c)
	}
}

// calleeFunc resolves the function object a call target denotes, or nil for
// function values.
func (s *scanner) calleeFunc(fun ast.Expr) *types.Func {
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := s.info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := s.info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.F.
		if fn, ok := s.info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// relativePath rewrites a syncops receiver key rooted at this function's
// receiver or a parameter into a stable relative form ("recv.mu",
// "arg0.mu"), so callers can match it against their own receiver
// expressions. Keys rooted elsewhere (locals, globals) return false.
func (s *scanner) relativePath(op syncops.Op) (string, bool) {
	root := op.Root
	if root == nil {
		return "", false
	}
	suffix := ""
	if i := strings.Index(op.Key, "."); i >= 0 {
		suffix = op.Key[i:]
	}
	fd := s.fn.Decl
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, name := range f.Names {
				if s.info.Defs[name] == root {
					return "recv" + suffix, true
				}
			}
		}
	}
	if fd.Type.Params != nil {
		i := 0
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				if s.info.Defs[name] == root {
					return fmt.Sprintf("arg%d%s", i, suffix), true
				}
				i++
			}
			if len(f.Names) == 0 {
				i++
			}
		}
	}
	return "", false
}

// children invokes fn for each direct child node of n, in source order.
// It exists because the scanner needs one-level traversal (ast.Inspect
// recurses fully, losing the lexical context).
func children(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(child ast.Node) bool {
		if child == nil || child == n {
			return child == n
		}
		fn(child)
		return false
	})
}
