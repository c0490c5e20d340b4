// Package baseline records a snapshot of procmine-vet diagnostics so CI can
// gate on *new* findings only: the committed baseline file names every
// finding the tree currently carries (ideally none), and `-baseline check`
// fails exactly when the working tree produces a finding the baseline does
// not account for.
//
// Entries are keyed line-insensitively — (file, pass, message), with a
// count for repeats — so ordinary edits that shift code up or down do not
// invalidate the baseline, while a genuinely new finding (or one more
// instance of a known one) in the same file does.
package baseline

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"procmine/internal/analysis/driver"
)

// Schema identifies the file format; bump the suffix on incompatible
// changes.
const Schema = "procmine-vet-baseline/v1"

// Entry is one accepted finding, line-insensitive.
type Entry struct {
	// File is the repo-relative, slash-separated path.
	File string `json:"file"`
	// Pass is the analyzer name.
	Pass string `json:"pass"`
	// Message is the exact diagnostic text.
	Message string `json:"message"`
	// Count is how many instances of this finding the baseline accepts.
	Count int `json:"count"`
}

// File is the decoded baseline document.
type File struct {
	Schema   string  `json:"schema"`
	Findings []Entry `json:"findings"`
	// Summary totals the accepted findings per pass. It is derived from
	// Findings on write and validated on load, so a hand-edited baseline
	// whose entries and totals disagree is rejected rather than silently
	// trusted; reviewers get the per-pass magnitude without summing entries
	// by hand.
	Summary map[string]int `json:"summary,omitempty"`
}

// computeSummary derives the per-pass totals from the entry list.
func computeSummary(entries []Entry) map[string]int {
	if len(entries) == 0 {
		return nil
	}
	sum := make(map[string]int)
	for _, e := range entries {
		sum[e.Pass] += e.Count
	}
	return sum
}

// key is the line-insensitive identity of a finding.
type key struct {
	file, pass, message string
}

// normalize maps a finding position to the baseline's path convention:
// relative to dir when possible, always slash-separated.
func normalize(dir, filename string) string {
	if dir != "" {
		if rel, err := filepath.Rel(dir, filename); err == nil && !strings.HasPrefix(rel, "..") {
			filename = rel
		}
	}
	return filepath.ToSlash(filename)
}

// FromFindings aggregates driver findings into a baseline document with
// paths relative to dir. The output is deterministically ordered.
func FromFindings(dir string, findings []driver.Finding) *File {
	counts := make(map[key]int)
	for _, f := range findings {
		counts[key{normalize(dir, f.Pos.Filename), f.Analyzer, f.Message}]++
	}
	// Findings is non-nil so an empty baseline marshals as [], keeping the
	// committed file self-describing.
	out := &File{Schema: Schema, Findings: []Entry{}}
	for k, n := range counts {
		out.Findings = append(out.Findings, Entry{File: k.file, Pass: k.pass, Message: k.message, Count: n})
	}
	sort.Slice(out.Findings, func(i, j int) bool {
		a, b := out.Findings[i], out.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
	out.Summary = computeSummary(out.Findings)
	return out
}

// Write stores the document at path, atomically enough for CI use (full
// rewrite, trailing newline for clean diffs).
func Write(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding baseline: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o666); err != nil {
		return fmt.Errorf("writing baseline: %w", err)
	}
	return nil
}

// Load reads and validates the document at path.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("decoding baseline %s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("baseline %s has schema %q, want %q (regenerate with -baseline write)", path, f.Schema, Schema)
	}
	// Duplicate keys would make counts ambiguous (which entry wins?); a
	// baseline is only ever machine-written, so duplicates mean a bad merge.
	seen := make(map[key]bool, len(f.Findings))
	for _, e := range f.Findings {
		k := key{e.File, e.Pass, e.Message}
		if seen[k] {
			return nil, fmt.Errorf("baseline %s has duplicate entry for %s %s %q (bad merge? regenerate with -baseline write)", path, e.File, e.Pass, e.Message)
		}
		seen[k] = true
	}
	// A present summary must agree with the entries.
	if f.Summary != nil {
		want := computeSummary(f.Findings)
		for pass, n := range f.Summary {
			if want[pass] != n {
				return nil, fmt.Errorf("baseline %s summary says %d %s findings but entries total %d (regenerate with -baseline write)", path, n, pass, want[pass])
			}
		}
		for pass, n := range want {
			if _, ok := f.Summary[pass]; !ok {
				return nil, fmt.Errorf("baseline %s summary is missing pass %s (%d findings; regenerate with -baseline write)", path, pass, n)
			}
		}
	}
	return &f, nil
}

// Select returns the findings whose line-insensitive key appears in
// entries, preserving driver order. When an entry accepts fewer instances
// than the tree carries, every instance is returned: the baseline cannot
// tell which occurrence is the new one, so CI annotates them all.
func Select(entries []Entry, dir string, findings []driver.Finding) []driver.Finding {
	keys := make(map[key]bool, len(entries))
	for _, e := range entries {
		keys[key{e.File, e.Pass, e.Message}] = true
	}
	var out []driver.Finding
	for _, f := range findings {
		if keys[key{normalize(dir, f.Pos.Filename), f.Analyzer, f.Message}] {
			out = append(out, f)
		}
	}
	return out
}

// Diff returns the findings in current that base does not accept. A
// finding is new when its (file, pass, message) key is absent from the
// baseline or occurs more times than the baseline's count; the returned
// entries carry the excess count.
func Diff(base *File, dir string, current []driver.Finding) []Entry {
	allowed := make(map[key]int)
	for _, e := range base.Findings {
		allowed[key{e.File, e.Pass, e.Message}] += e.Count
	}
	cur := FromFindings(dir, current)
	var out []Entry
	for _, e := range cur.Findings {
		if extra := e.Count - allowed[key{e.File, e.Pass, e.Message}]; extra > 0 {
			e.Count = extra
			out = append(out, e)
		}
	}
	return out
}

// Stale returns the baseline entries the current findings no longer
// justify: keys absent from the tree, or counts above what the tree
// carries; the returned entries hold the unjustified surplus. A stale entry
// means someone fixed a baselined finding without regenerating — the
// baseline would silently re-admit a regression of that exact finding, so
// `-baseline check` reports the surplus and fails until a regenerate.
func Stale(base *File, dir string, current []driver.Finding) []Entry {
	have := make(map[key]int)
	for _, f := range current {
		have[key{normalize(dir, f.Pos.Filename), f.Analyzer, f.Message}]++
	}
	var out []Entry
	for _, e := range base.Findings {
		if surplus := e.Count - have[key{e.File, e.Pass, e.Message}]; surplus > 0 {
			e.Count = surplus
			out = append(out, e)
		}
	}
	return out
}
