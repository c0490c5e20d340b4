package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"procmine/internal/graph"
	"procmine/internal/wlog"
)

// bigRandomLog builds a log wide enough that the O(mn³) marking pass has
// real work to abort.
func bigRandomLog(acts, execs int) *wlog.Log {
	seqs := make([]string, execs)
	for i := range seqs {
		var s []byte
		for a := 0; a < acts; a++ {
			s = append(s, byte('A'+a%26))
		}
		// Rotate the middle so executions differ (keeps first/last fixed).
		rot := i % (acts - 2)
		mid := append(append([]byte{}, s[1+rot:acts-1]...), s[1:1+rot]...)
		seqs[i] = string(s[0]) + string(mid) + string(s[acts-1])
	}
	return wlog.LogFromStrings(seqs...)
}

func TestMineContextCancelled(t *testing.T) {
	l := bigRandomLog(12, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every variant must abort, not mine
	for name, mine := range map[string]func(context.Context, *wlog.Log, Options) (*graph.Digraph, error){
		"special": MineSpecialDAGContext,
		"dag":     MineGeneralDAGContext,
		"cyclic":  MineCyclicContext,
		"auto":    MineContext,
	} {
		g, err := mine(ctx, l, Options{})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if g != nil {
			t.Errorf("%s: returned a graph despite cancellation", name)
		}
	}
}

func TestMineContextBackgroundMatchesPlain(t *testing.T) {
	logs := map[string]*wlog.Log{
		"example6": wlog.LogFromStrings("ABCDE", "ACDBE", "ACBDE"),
		"example7": wlog.LogFromStrings("ABCF", "ACDF", "ADEF", "AECF"),
		"wide":     bigRandomLog(8, 10),
	}
	for name, l := range logs {
		plain, err1 := MineGeneralDAG(l, Options{})
		withCtx, err2 := MineGeneralDAGContext(context.Background(), l, Options{})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: errs %v, %v", name, err1, err2)
		}
		if d := graph.Compare(plain, withCtx); !d.Equal() {
			t.Errorf("%s: context variant mined a different graph: %v / %v", name, d.MissingEdges, d.ExtraEdges)
		}
	}
}

func TestMaxActivitiesLimit(t *testing.T) {
	l := wlog.LogFromStrings("ABCDE", "ACDBE")
	if _, err := MineGeneralDAGContext(context.Background(), l, Options{MaxActivities: 4}); !errors.Is(err, ErrTooManyActivities) {
		t.Errorf("5 activities vs cap 4: err = %v, want ErrTooManyActivities", err)
	}
	if _, err := MineGeneralDAGContext(context.Background(), l, Options{MaxActivities: 5}); err != nil {
		t.Errorf("5 activities vs cap 5: unexpected err %v", err)
	}
	if _, err := MineSpecialDAGContext(context.Background(), l, Options{MaxActivities: 2}); !errors.Is(err, ErrTooManyActivities) {
		t.Errorf("special: err = %v, want ErrTooManyActivities", err)
	}
	if _, err := MineContext(context.Background(), l, Options{MaxActivities: 2}); !errors.Is(err, ErrTooManyActivities) {
		t.Errorf("auto: err = %v, want ErrTooManyActivities", err)
	}
	if _, _, err := MineWithDiagnosticsContext(context.Background(), l, Options{MaxActivities: 2}); !errors.Is(err, ErrTooManyActivities) {
		t.Errorf("diagnostics: err = %v, want ErrTooManyActivities", err)
	}
	im := NewIncrementalMiner()
	if err := im.AddLog(l); err != nil {
		t.Fatal(err)
	}
	if _, err := im.MineContext(context.Background(), Options{MaxActivities: 2}); !errors.Is(err, ErrTooManyActivities) {
		t.Errorf("incremental: err = %v, want ErrTooManyActivities", err)
	}
	if _, err := im.MineContext(context.Background(), Options{MaxActivities: 5}); err != nil {
		t.Errorf("incremental, 5 activities vs cap 5: unexpected err %v", err)
	}
}

func TestMaxInstanceLabelsLimit(t *testing.T) {
	// B repeats 3 times per execution -> labels B#1..B#3.
	l := wlog.LogFromStrings("ABBBC", "ABBBC")
	if _, err := MineCyclicContext(context.Background(), l, Options{MaxInstanceLabels: 2}); !errors.Is(err, ErrTooManyInstances) {
		t.Errorf("3 repeats vs cap 2: err = %v, want ErrTooManyInstances", err)
	}
	if _, err := MineCyclicContext(context.Background(), l, Options{MaxInstanceLabels: 3}); err != nil {
		t.Errorf("3 repeats vs cap 3: unexpected err %v", err)
	}
	if _, err := MineContext(context.Background(), l, Options{MaxInstanceLabels: 2}); !errors.Is(err, ErrTooManyInstances) {
		t.Errorf("auto: err = %v, want ErrTooManyInstances", err)
	}
	if _, _, err := MineWithDiagnosticsContext(context.Background(), l, Options{MaxInstanceLabels: 2}); !errors.Is(err, ErrTooManyInstances) {
		t.Errorf("diagnostics: err = %v, want ErrTooManyInstances", err)
	}
}

// TestMineContextTimeoutAbortsMarking drives a deadline that expires during
// the marking pass and checks the error surfaces rather than hanging.
func TestMineContextTimeoutAbortsMarking(t *testing.T) {
	l := bigRandomLog(14, 60)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := MineGeneralDAGContext(ctx, l, Options{})
		done <- err
	}()
	cancel()
	err := <-done
	// The mine may have finished before cancel landed; both outcomes are
	// legal, but a context error must be context.Canceled, never a hang.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want nil or context.Canceled", err)
	}
}

func ExampleMineContext() {
	l := wlog.LogFromStrings("ABCF", "ACDF", "ADEF", "AECF")
	g, err := MineContext(context.Background(), l, Options{})
	if err != nil {
		fmt.Println("mine:", err)
		return
	}
	fmt.Println(len(g.Edges()), "edges")
	// Output: 8 edges
}
