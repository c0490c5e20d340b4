package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBadFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag exit code = %d, want 2", code)
	}
}

// TestSelfClean runs the standalone driver over this very package, which
// must be free of findings.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list; skipped in -short mode")
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

func TestBadBaselineMode(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-baseline", "merge", "."}, &stdout, &stderr); code != 2 {
		t.Errorf("-baseline merge exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "'write' or 'check'") {
		t.Errorf("stderr missing mode hint: %s", stderr.String())
	}
}

func TestBaselineCheckMissingFile(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list; skipped in -short mode")
	}
	var stdout, stderr strings.Builder
	path := filepath.Join(t.TempDir(), "nope.json")
	if code := run([]string{"-baseline", "check", path, "."}, &stdout, &stderr); code != 2 {
		t.Errorf("check against missing baseline exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
}

// TestBaselineCheckFailsOnStaleEntries pins the stale gate: a baseline
// accepting a finding this (clean) package no longer produces must fail
// -baseline check, not merely warn, so fixes get locked in by regenerating.
func TestBaselineCheckFailsOnStaleEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list; skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "BASELINE.json")
	stale := `{
  "schema": "procmine-vet-baseline/v1",
  "findings": [
    {"file": "main.go", "pass": "hotalloc", "message": "long gone finding", "count": 2}
  ],
  "summary": {"hotalloc": 2}
}` + "\n"
	if err := os.WriteFile(path, []byte(stale), 0o666); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-baseline", "check", path, "."}, &stdout, &stderr); code != 1 {
		t.Fatalf("check with stale baseline exit code = %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "stale baseline entry") ||
		!strings.Contains(stderr.String(), "failing check") {
		t.Errorf("stderr missing stale failure explanation:\n%s", stderr.String())
	}
}

// TestBaselineRoundTrip writes a baseline for this (clean) package and
// immediately checks against it.
func TestBaselineRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list; skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "BASELINE.json")
	var stdout, stderr strings.Builder
	if code := run([]string{"-baseline", "write", path, "."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-baseline write exit code = %d, want 0\nstderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("baseline file not written: %v", err)
	}
	if !strings.Contains(string(data), "procmine-vet-baseline/v1") {
		t.Errorf("baseline file missing schema marker:\n%s", data)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", "check", path, "."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-baseline check exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestJSONColAndOrder pins the -json contract: every finding carries a
// 1-based column and the array is sorted by (file, line, col, pass). The
// fixture module seeds a leaked Lock, an ABBA lock-order cycle, and a
// mutex behind a map index — the latter producing no finding but a
// skipped-noncanonical-receiver counter, which -stats must surface.
func TestJSONColAndOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list; skipped in -short mode")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module jsontest\n\ngo 1.22\n",
		"internal/m/m.go": `package m

import "sync"

type T struct {
	a sync.Mutex
	b sync.Mutex
}

func Leak(t *T) {
	t.a.Lock()
}

func AB(t *T) {
	t.a.Lock()
	defer t.a.Unlock()
	t.b.Lock()
	t.b.Unlock()
}

func BA(t *T) {
	t.b.Lock()
	defer t.b.Unlock()
	t.a.Lock()
	t.a.Unlock()
}

func Skip(ms map[string]*sync.Mutex) {
	ms["k"].Lock()
	ms["k"].Unlock()
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
	t.Chdir(dir)

	var stdout, stderr strings.Builder
	if code := run([]string{"-json", "-stats", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1 (seeded findings)\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	var out []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Pass    string `json:"pass"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &out); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, stdout.String())
	}
	if len(out) < 2 {
		t.Fatalf("got %d findings, want at least the leak and the cycle:\n%s", len(out), stdout.String())
	}
	for i, f := range out {
		if f.Col < 1 {
			t.Errorf("finding %d has no column: %+v", i, f)
		}
	}
	for i := 1; i < len(out); i++ {
		a, b := out[i-1], out[i]
		ka := fmt.Sprintf("%s\x00%08d\x00%08d\x00%s", a.File, a.Line, a.Col, a.Pass)
		kb := fmt.Sprintf("%s\x00%08d\x00%08d\x00%s", b.File, b.Line, b.Col, b.Pass)
		if ka > kb {
			t.Errorf("findings out of order at %d: %+v before %+v", i, a, b)
		}
	}
	if !strings.Contains(stderr.String(), "skipped-noncanonical-receiver") {
		t.Errorf("-stats output missing the skip counter:\n%s", stderr.String())
	}
}
