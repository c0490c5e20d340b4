package procmine_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"procmine"
	"procmine/internal/synth"
)

// generatedText renders a simulated m-execution log of a random n=30 DAG in
// the text codec.
func generatedText(t *testing.T, m int) []byte {
	t.Helper()
	g := synth.RandomDAG(rand.New(rand.NewSource(7)), 30, synth.PaperEdgeProb(30))
	sim, err := synth.NewSimulator(g, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	l := sim.GenerateLog("r_", m)
	var buf bytes.Buffer
	if err := procmine.WriteLog(&buf, l, procmine.FormatText); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadLogAllocsPerExecution guards the single-pass reader's allocation
// budget. Allocation counts are deterministic, unlike timings: reading a
// log costs about one allocation per distinct execution ID (its interned
// name) and one per distinct activity set (the attached columnar view),
// plus O(log events) slice growth. The string-keyed pipeline it replaced
// needed about 47 per execution.
func TestReadLogAllocsPerExecution(t *testing.T) {
	const m = 2000
	data := generatedText(t, m)
	allocs := testing.AllocsPerRun(5, func() {
		l, _, err := procmine.ReadLogWith(bytes.NewReader(data), procmine.FormatText, procmine.IngestOptions{})
		if err != nil || l.Len() != m {
			t.Fatalf("read %v executions: %v", l, err)
		}
	})
	const budget = 2.0
	if per := allocs / m; per > budget {
		t.Errorf("ReadLogWith: %.2f allocations per execution (%.0f total), budget %.1f", per, allocs, budget)
	}
}

// TestReadLogEditBeforeFirstMine pins the Log.Columnar contract for logs
// whose columnar view the reader attached: an in-place edit made before the
// first mine is mined, not the view of the unedited steps.
func TestReadLogEditBeforeFirstMine(t *testing.T) {
	data := generatedText(t, 200)
	read := func() *procmine.Log {
		l, err := procmine.ReadLog(bytes.NewReader(data), procmine.FormatText)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	edits := map[string]func(l *procmine.Log){
		"rename": func(l *procmine.Log) {
			for i := range l.Executions {
				for j := range l.Executions[i].Steps {
					if l.Executions[i].Steps[j].Activity == synth.ActivityName(1) {
						l.Executions[i].Steps[j].Activity = "Renamed"
					}
				}
			}
		},
		"reorder": func(l *procmine.Log) {
			for i := range l.Executions {
				s := l.Executions[i].Steps
				if len(s) > 3 {
					s[1].Start, s[2].Start = s[2].Start, s[1].Start
					s[1].End, s[2].End = s[2].End, s[1].End
				}
			}
		},
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			l := read()
			edit(l)
			got, err := procmine.MineContext(context.Background(), l, procmine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// A log assembled from scratch has no attached view.
			fresh := &procmine.Log{Executions: l.Executions}
			want, err := procmine.MineContext(context.Background(), fresh, procmine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if d := procmine.Compare(want, got); !reflect.DeepEqual(got.Edges(), want.Edges()) {
				t.Fatalf("edited log mined the unedited steps: %d extra, %d missing edges", len(d.ExtraEdges), len(d.MissingEdges))
			}
			unedited, err := procmine.MineContext(context.Background(), read(), procmine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(got.Edges(), unedited.Edges()) {
				t.Fatal("edit did not change the mined model; the test proves nothing")
			}
		})
	}
}
