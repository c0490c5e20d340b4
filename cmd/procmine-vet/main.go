// Command procmine-vet runs the procmine static-analysis suite: the eleven
// go/analysis-style passes that mechanically enforce the invariants the
// paper's conformality and determinism guarantees rest on (see DESIGN.md,
// "Static analysis invariants"), including the interprocedural passes built
// on the module call graph (lockheldblocking, ctxleak, hotalloc, and the
// lock-order deadlock detector lockorder).
//
// It runs over package patterns, type-checking every matched package and
// building one module call graph per run:
//
//	procmine-vet ./...
//
// Diagnostic baselines let CI gate on new findings only:
//
//	procmine-vet -baseline write BASELINE.json ./...   # accept the status quo
//	procmine-vet -baseline check BASELINE.json ./...   # fail on new findings
//
// Check mode also fails on stale baseline entries — accepted findings the
// tree no longer produces — so a fixed finding forces a regenerate rather
// than silently re-admitting its regression later.
//
// With -json, standalone findings (and -baseline check regressions) are
// emitted as a JSON array of {file, line, col, pass, message} objects,
// sorted by (file, line, col, pass), for CI annotation tooling. Adding
// -timing changes the JSON shape to an object
// {"findings": [...], "timing": {...}} carrying the package count, per-pass
// wall time, diagnostic counts, and coverage counters;
// without -json, -timing prints the table to stderr. -stats prints each
// pass's coverage counters (sites skipped as unanalyzable, see
// analysis.Pass.Count) to stderr. -graph FILE writes the module call graph
// as Graphviz DOT ("-" for stdout); unresolved call edges carry
// kind="unresolved", which CI greps to keep the service layer fully
// analyzable.
//
// Exit status: 0 when clean, 1 when any pass reports a finding (or any
// non-baselined finding under -baseline check), 2 when loading or
// type-checking fails. Findings can be silenced per line with
// `//lint:ignore procmine <reason>` or
// `//lint:ignore procmine/<pass> <reason>`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"procmine/internal/analysis"
	"procmine/internal/analysis/baseline"
	"procmine/internal/analysis/callgraph"
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

// suite returns the full pass list: seven intra-function passes and the
// four interprocedural ones built on the call-graph summaries.
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// say writes best-effort CLI output. A failed write to stdout/stderr leaves
// the tool no channel to report on, so the error is deliberately dropped
// here — in exactly one place.
func say(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("procmine-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonFlag := fs.Bool("json", false, "emit diagnostics as a JSON array of {file, line, col, pass, message}")
	baselineFlag := fs.String("baseline", "", "baseline mode: 'write' records current findings to the baseline file, 'check' fails only on findings the baseline does not accept")
	timingFlag := fs.Bool("timing", false, "report per-pass wall time and diagnostic counts (table on stderr, or embedded in -json output)")
	statsFlag := fs.Bool("stats", false, "report per-pass coverage counters — sites skipped as unanalyzable — on stderr")
	graphFlag := fs.String("graph", "", "write the module call graph as Graphviz DOT to this file ('-' for stdout)")
	fs.Usage = func() {
		say(stderr, "usage: procmine-vet [packages] | procmine-vet -baseline write|check [FILE.json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()

	// Baseline modes take an optional leading FILE.json positional.
	baselinePath := "BASELINE.json"
	if *baselineFlag != "" && len(rest) > 0 && strings.HasSuffix(rest[0], ".json") {
		baselinePath = rest[0]
		rest = rest[1:]
	}
	switch *baselineFlag {
	case "", "write", "check":
	default:
		say(stderr, "procmine-vet: -baseline must be 'write' or 'check', got %q\n", *baselineFlag)
		return 2
	}

	if len(rest) == 0 {
		rest = []string{"."}
	}
	res, err := driver.Run("", rest, suite())
	if err != nil {
		say(stderr, "procmine-vet: %v\n", err)
		return 2
	}
	findings := res.Findings
	wd, _ := os.Getwd()

	if *graphFlag != "" {
		if err := writeGraph(res.Graph, *graphFlag, stdout); err != nil {
			say(stderr, "procmine-vet: %v\n", err)
			return 2
		}
	}

	switch *baselineFlag {
	case "write":
		if err := baseline.Write(baselinePath, baseline.FromFindings(wd, findings)); err != nil {
			say(stderr, "procmine-vet: %v\n", err)
			return 2
		}
		say(stderr, "procmine-vet: wrote %s accepting %d finding(s)\n", baselinePath, len(findings))
		return 0
	case "check":
		base, err := baseline.Load(baselinePath)
		if err != nil {
			say(stderr, "procmine-vet: %v\n", err)
			return 2
		}
		// Stale entries — accepted findings the tree no longer produces —
		// fail the check just like regressions do: a stale baseline would
		// silently re-admit a regression of the fixed finding, so the fix
		// must be locked in with an immediate regenerate.
		stale := baseline.Stale(base, wd, findings)
		for _, e := range stale {
			say(stderr, "procmine-vet: stale baseline entry: %s no longer produces %d × %s %q; regenerate with -baseline write\n",
				e.File, e.Count, e.Pass, e.Message)
		}
		fresh := baseline.Diff(base, wd, findings)
		regressed := baseline.Select(fresh, wd, findings)
		if len(regressed) > 0 {
			say(stderr, "procmine-vet: %d finding(s) not accepted by %s\n", len(regressed), baselinePath)
		}
		status := emit(stdout, stderr, wd, regressed, *jsonFlag, *timingFlag, *statsFlag, res.Stats)
		if status == 0 && len(stale) > 0 {
			say(stderr, "procmine-vet: %s carries %d stale entr(y/ies); failing check until it is regenerated\n", baselinePath, len(stale))
			return 1
		}
		return status
	}

	return emit(stdout, stderr, wd, findings, *jsonFlag, *timingFlag, *statsFlag, res.Stats)
}

// emit prints findings (and, when asked, the timing breakdown and coverage
// counters) in the requested format and returns the exit status: 0 clean,
// 1 with findings.
func emit(stdout, stderr io.Writer, wd string, findings []driver.Finding, asJSON, timing, counters bool, stats driver.Stats) int {
	status := 0
	if len(findings) > 0 {
		status = 1
	}
	if counters {
		printCounters(stderr, stats)
	}
	if !asJSON {
		driver.Format(stdout, wd, findings)
		if timing {
			printTiming(stderr, stats)
		}
		return status
	}
	type jsonFinding struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Pass    string `json:"pass"`
		Message string `json:"message"`
	}
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		name := f.Pos.Filename
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		out = append(out, jsonFinding{
			File:    filepath.ToSlash(name),
			Line:    f.Pos.Line,
			Col:     f.Pos.Column,
			Pass:    f.Analyzer,
			Message: f.Message,
		})
	}
	// Without -timing the shape stays a bare array for existing tooling;
	// with it, findings and the per-pass breakdown ride in one object.
	var payload any = out
	if timing {
		payload = struct {
			Findings any          `json:"findings"`
			Timing   driver.Stats `json:"timing"`
		}{Findings: out, Timing: stats}
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		say(stderr, "procmine-vet: %v\n", err)
		return 2
	}
	say(stdout, "%s\n", data)
	return status
}

// printTiming renders the per-pass table, slowest pass visible at a glance.
func printTiming(w io.Writer, stats driver.Stats) {
	say(w, "procmine-vet: timing over %d package(s):\n", stats.Packages)
	for _, p := range stats.Passes {
		say(w, "  %-18s %9.1fms  %d finding(s)\n", p.Pass, p.Millis, p.Findings)
	}
}

// printCounters renders each pass's coverage counters — how often it
// silently skipped a site it could not reason about, e.g. a mutex behind a
// non-canonicalizable receiver expression.
func printCounters(w io.Writer, stats driver.Stats) {
	total := 0
	for _, p := range stats.Passes {
		if len(p.Counters) == 0 {
			continue
		}
		names := make([]string, 0, len(p.Counters))
		for name := range p.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			say(w, "procmine-vet: stats: %s: %s = %d\n", p.Pass, name, p.Counters[name])
			total++
		}
	}
	if total == 0 {
		say(w, "procmine-vet: stats: no sites skipped\n")
	}
}

// writeGraph dumps the call graph as DOT to path ("-" for stdout).
func writeGraph(g *callgraph.Graph, path string, stdout io.Writer) error {
	if path == "-" {
		return g.WriteDOT(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := g.WriteDOT(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
