package baseline_test

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"procmine/internal/analysis/baseline"
	"procmine/internal/analysis/driver"
)

func finding(file string, line int, pass, msg string) driver.Finding {
	return driver.Finding{
		Analyzer: pass,
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Message:  msg,
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	findings := []driver.Finding{
		finding(filepath.Join(dir, "pkg", "a.go"), 10, "lockbalance", "mu.Lock() leaked"),
		finding(filepath.Join(dir, "pkg", "a.go"), 40, "lockbalance", "mu.Lock() leaked"),
		finding(filepath.Join(dir, "pkg", "b.go"), 7, "wgprotocol", "wait before add"),
	}
	doc := baseline.FromFindings(dir, findings)
	if len(doc.Findings) != 2 {
		t.Fatalf("FromFindings produced %d entries, want 2 (duplicates aggregate)", len(doc.Findings))
	}
	if doc.Findings[0].File != "pkg/a.go" || doc.Findings[0].Count != 2 {
		t.Errorf("first entry = %+v, want pkg/a.go with count 2", doc.Findings[0])
	}

	path := filepath.Join(dir, "BASELINE.json")
	if err := baseline.Write(path, doc); err != nil {
		t.Fatalf("Write: %v", err)
	}
	loaded, err := baseline.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Schema != baseline.Schema {
		t.Errorf("loaded schema = %q, want %q", loaded.Schema, baseline.Schema)
	}
	if len(loaded.Findings) != len(doc.Findings) {
		t.Fatalf("round trip lost entries: %d != %d", len(loaded.Findings), len(doc.Findings))
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"schema":"procmine-vet-baseline/v0","findings":[]}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := baseline.Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("Load with wrong schema: err = %v, want schema mismatch", err)
	}
}

// TestDiffLineInsensitive is the contract the whole mode exists for:
// shifting a known finding to another line is not a regression; a new
// finding, or one more instance of a known one, is.
func TestDiffLineInsensitive(t *testing.T) {
	dir := t.TempDir()
	base := baseline.FromFindings(dir, []driver.Finding{
		finding(filepath.Join(dir, "a.go"), 10, "lockbalance", "mu.Lock() leaked"),
	})

	moved := []driver.Finding{finding(filepath.Join(dir, "a.go"), 99, "lockbalance", "mu.Lock() leaked")}
	if d := baseline.Diff(base, dir, moved); len(d) != 0 {
		t.Errorf("Diff flagged a line move: %+v", d)
	}

	extra := append(moved, finding(filepath.Join(dir, "a.go"), 120, "lockbalance", "mu.Lock() leaked"))
	d := baseline.Diff(base, dir, extra)
	if len(d) != 1 || d[0].Count != 1 {
		t.Fatalf("Diff on extra instance = %+v, want one entry with excess count 1", d)
	}

	fresh := append(moved, finding(filepath.Join(dir, "b.go"), 3, "wgprotocol", "wait before add"))
	d = baseline.Diff(base, dir, fresh)
	if len(d) != 1 || d[0].File != "b.go" || d[0].Pass != "wgprotocol" {
		t.Fatalf("Diff on new finding = %+v, want the b.go wgprotocol entry", d)
	}

	if d := baseline.Diff(base, dir, nil); len(d) != 0 {
		t.Errorf("Diff with clean tree = %+v, want none (stale entries are allowed)", d)
	}
}

func TestSelect(t *testing.T) {
	dir := t.TempDir()
	f1 := finding(filepath.Join(dir, "a.go"), 10, "lockbalance", "leak one")
	f2 := finding(filepath.Join(dir, "a.go"), 20, "wgprotocol", "wait early")
	f3 := finding(filepath.Join(dir, "b.go"), 5, "lockbalance", "leak one")
	entries := []baseline.Entry{{File: "a.go", Pass: "lockbalance", Message: "leak one", Count: 1}}
	got := baseline.Select(entries, dir, []driver.Finding{f1, f2, f3})
	if len(got) != 1 || got[0].Pos.Line != 10 {
		t.Fatalf("Select = %+v, want only the a.go lockbalance finding", got)
	}
}

// TestStale covers the fixed-but-not-regenerated cases: an entry for a file
// that was renamed away, and an entry whose count exceeds what the tree
// still carries. Both surface as stale with the unjustified surplus.
func TestStale(t *testing.T) {
	dir := t.TempDir()
	base := baseline.FromFindings(dir, []driver.Finding{
		finding(filepath.Join(dir, "old.go"), 10, "hotalloc", "append allocates in a loop"),
		finding(filepath.Join(dir, "keep.go"), 5, "hotalloc", "make allocates in a loop"),
		finding(filepath.Join(dir, "keep.go"), 9, "hotalloc", "make allocates in a loop"),
	})

	// old.go was renamed to new.go: its entry is fully stale, and the same
	// finding under the new name is a fresh regression, not a match.
	current := []driver.Finding{
		finding(filepath.Join(dir, "new.go"), 10, "hotalloc", "append allocates in a loop"),
		finding(filepath.Join(dir, "keep.go"), 5, "hotalloc", "make allocates in a loop"),
	}
	stale := baseline.Stale(base, dir, current)
	if len(stale) != 2 {
		t.Fatalf("Stale = %+v, want the renamed-away entry and the count surplus", stale)
	}
	byFile := make(map[string]baseline.Entry)
	for _, e := range stale {
		byFile[e.File] = e
	}
	if e := byFile["old.go"]; e.Count != 1 {
		t.Errorf("renamed file: stale entry = %+v, want old.go x1", e)
	}
	if e := byFile["keep.go"]; e.Count != 1 {
		t.Errorf("count decrease: stale entry = %+v, want keep.go surplus 1", e)
	}
	if d := baseline.Diff(base, dir, current); len(d) != 1 || d[0].File != "new.go" {
		t.Errorf("Diff = %+v, want the finding under the new name flagged as fresh", d)
	}

	if s := baseline.Stale(base, dir, nil); len(s) != 2 {
		t.Errorf("Stale on clean tree = %+v, want every entry", s)
	}
}

// TestLoadRejectsDuplicateKeys: duplicate (file, pass, message) entries make
// counts ambiguous, so a bad merge is rejected rather than trusted.
func TestLoadRejectsDuplicateKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.json")
	doc := `{"schema":"procmine-vet-baseline/v1","findings":[
		{"file":"a.go","pass":"hotalloc","message":"m","count":1},
		{"file":"a.go","pass":"hotalloc","message":"m","count":2}]}`
	if err := os.WriteFile(path, []byte(doc), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := baseline.Load(path); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Load with duplicate keys: err = %v, want duplicate-entry rejection", err)
	}
}

// TestSummaryRoundTrip: the per-pass summary is derived on write, survives
// the round trip, and a hand-edited disagreement in either direction is
// rejected on load.
func TestSummaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	doc := baseline.FromFindings(dir, []driver.Finding{
		finding(filepath.Join(dir, "a.go"), 1, "hotalloc", "m1"),
		finding(filepath.Join(dir, "a.go"), 2, "hotalloc", "m1"),
		finding(filepath.Join(dir, "b.go"), 3, "ctxleak", "m2"),
	})
	if doc.Summary["hotalloc"] != 2 || doc.Summary["ctxleak"] != 1 {
		t.Fatalf("Summary = %v, want hotalloc:2 ctxleak:1", doc.Summary)
	}
	path := filepath.Join(dir, "BASELINE.json")
	if err := baseline.Write(path, doc); err != nil {
		t.Fatal(err)
	}
	loaded, err := baseline.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Summary["hotalloc"] != 2 || loaded.Summary["ctxleak"] != 1 {
		t.Errorf("round-tripped Summary = %v, want hotalloc:2 ctxleak:1", loaded.Summary)
	}

	// Summary total disagrees with the entries.
	bad := `{"schema":"procmine-vet-baseline/v1","findings":[
		{"file":"a.go","pass":"hotalloc","message":"m1","count":2}],
		"summary":{"hotalloc":5}}`
	if err := os.WriteFile(path, []byte(bad), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := baseline.Load(path); err == nil || !strings.Contains(err.Error(), "summary") {
		t.Errorf("Load with wrong summary total: err = %v, want summary mismatch", err)
	}

	// Summary missing a pass the entries carry.
	missing := `{"schema":"procmine-vet-baseline/v1","findings":[
		{"file":"a.go","pass":"hotalloc","message":"m1","count":2},
		{"file":"b.go","pass":"ctxleak","message":"m2","count":1}],
		"summary":{"hotalloc":2}}`
	if err := os.WriteFile(path, []byte(missing), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := baseline.Load(path); err == nil || !strings.Contains(err.Error(), "missing pass") {
		t.Errorf("Load with summary missing a pass: err = %v, want missing-pass rejection", err)
	}
}
