package wlog

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadText checks that arbitrary input never panics the text decoder
// and that successfully decoded events re-encode and re-decode to the same
// events (round-trip stability).
func FuzzReadText(f *testing.F) {
	f.Add("p A START 100\np A END 200 5\n")
	f.Add("# comment\n\np1 Upload START 1\np1 Upload END 2 7 8 9\n")
	f.Add("x y z w\n")
	f.Add("p A START notanumber\n")
	f.Add("p A END 100 -3\n")
	f.Add("p a\u00a0b START 1\np a\vb END 2\n\u2003# c\ncafé Ü START 3\n")
	f.Fuzz(func(t *testing.T, input string) {
		events, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, events); err != nil {
			// The writer rejects exactly what the reader splits or
			// skips, so decoded names always re-encode.
			t.Fatalf("decoded events failed to re-encode: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-encoded text failed to decode: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d != %d", len(again), len(events))
		}
		for i := range events {
			if events[i].String() != again[i].String() {
				t.Fatalf("event %d changed: %q != %q", i, events[i].String(), again[i].String())
			}
		}
	})
}

// FuzzExecutionStreamPush pushes arbitrary (often structurally broken) event
// sequences through an ExecutionStream under every recovery policy and with
// tight resource watermarks. Nothing may panic; with an unlimited error
// budget the lenient policies may never surface an error; and everything
// emitted must be a well-formed execution.
func FuzzExecutionStreamPush(f *testing.F) {
	f.Add("p A START 1\np A END 2\n", uint8(0))
	f.Add("p A END 1\np A START 2\n", uint8(1))
	f.Add("p A START 1\nq B START 2\nr C START 3\ns D START 4\n", uint8(2))
	f.Add("p A START 1\np A START 2\np A START 3\np A END 4\n", uint8(1))
	f.Fuzz(func(t *testing.T, input string, mode uint8) {
		events, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, policy := range []Policy{FailFast, Skip, Quarantine} {
			opts := IngestOptions{Policy: policy}
			if mode&1 != 0 {
				opts.MaxOpenExecutions = 2
			}
			if mode&2 != 0 {
				opts.MaxStepsPerExecution = 3
			}
			var emitted []Execution
			s := NewExecutionStreamWith(opts, nil, func(e Execution) error {
				emitted = append(emitted, e)
				return nil
			})
			var streamErr error
			for _, e := range events {
				if err := s.Push(e); err != nil {
					streamErr = err
					break
				}
			}
			if streamErr == nil {
				streamErr = s.Close()
			}
			if streamErr != nil && opts.Policy != FailFast {
				// Lenient policies with MaxErrors unlimited absorb every
				// structural fault instead of propagating it.
				t.Fatalf("policy %v returned %v", policy, streamErr)
			}
			seen := map[string]bool{}
			for _, e := range emitted {
				if seen[e.ID] {
					t.Fatalf("policy %v emitted execution %q twice", policy, e.ID)
				}
				seen[e.ID] = true
				if len(e.Steps) == 0 {
					t.Fatalf("policy %v emitted empty execution %q", policy, e.ID)
				}
				for _, st := range e.Steps {
					if st.End.Before(st.Start) {
						t.Fatalf("policy %v emitted step %s ending before it starts", policy, st.Activity)
					}
				}
				if opts.MaxStepsPerExecution > 0 && len(e.Steps) > opts.MaxStepsPerExecution {
					t.Fatalf("policy %v emitted %d steps, watermark %d",
						policy, len(e.Steps), opts.MaxStepsPerExecution)
				}
			}
		}
	})
}

// FuzzAssemble checks that assembling arbitrary decoded event streams never
// panics and that successful assemblies validate.
func FuzzAssemble(f *testing.F) {
	f.Add("p A START 1\np A END 2\n")
	f.Add("p A START 1\np B START 2\np A END 3\np B END 4\n")
	f.Add("p A END 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		events, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		l, err := Assemble(events)
		if err != nil {
			return
		}
		for _, e := range l.Executions {
			_ = e.String()
			_ = e.ActivitySet()
		}
		_ = l.ComputeStats()
	})
}
