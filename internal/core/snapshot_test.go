package core

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"procmine/internal/graph"
	"procmine/internal/noise"
	"procmine/internal/synth"
	"procmine/internal/wlog"
)

// snapshotLogs is the fixture family for the snapshot properties: a clean
// synthetic DAG log, noise-corrupted variants, and a cyclic log with
// repeated activities (exercising labeled instances in the snapshot).
func snapshotLogs(t *testing.T) map[string]*wlog.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(20260808))
	g := synth.RandomDAG(rng, 10, synth.PaperEdgeProb(10))
	sim, err := synth.NewSimulator(g, rng)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	clean := sim.GenerateLog("s_", 30)
	c := noise.NewCorruptor(rand.New(rand.NewSource(11)))
	logs := map[string]*wlog.Log{
		"clean":    clean,
		"swapped":  c.SwapAdjacent(clean, 0.1),
		"dropped":  c.DropActivities(clean, 0.1),
		"spurious": c.InsertSpurious(clean, 0.3, noise.InsertionAlphabet(clean, 3)),
		"cyclic":   wlog.LogFromStrings("ABABC", "ABC", "ABABABC", "AC", "ABABC", "ABC"),
	}
	return logs
}

// mineDot renders a mined graph canonically for byte comparison.
func mineDot(t *testing.T, im *IncrementalMiner, opt Options) string {
	t.Helper()
	g, err := im.Mine(opt)
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	return g.Dot("snap")
}

// TestSnapshotRoundTripProperty pins the headline property: snapshotting
// after k executions, restoring into a fresh miner, and adding the
// remaining executions mines a graph byte-identical to continuous mining —
// for every split point, across clean, noisy, and cyclic logs, under both
// the MinSupport and AdaptiveEpsilon threshold paths.
func TestSnapshotRoundTripProperty(t *testing.T) {
	opts := []Options{{}, {MinSupport: 3}, {AdaptiveEpsilon: 0.05}}
	for name, l := range snapshotLogs(t) {
		for _, opt := range opts {
			continuous := NewIncrementalMiner()
			if err := continuous.AddLog(l); err != nil {
				t.Fatalf("%s: AddLog: %v", name, err)
			}
			want := mineDot(t, continuous, opt)

			for split := 0; split <= len(l.Executions); split += 7 {
				first := NewIncrementalMiner()
				for _, e := range l.Executions[:split] {
					if err := first.Add(e); err != nil {
						t.Fatalf("%s: Add: %v", name, err)
					}
				}
				restored := NewIncrementalMiner()
				if err := restored.RestoreSnapshot(first.Snapshot()); err != nil {
					t.Fatalf("%s: RestoreSnapshot: %v", name, err)
				}
				for _, e := range l.Executions[split:] {
					if err := restored.Add(e); err != nil {
						t.Fatalf("%s: Add after restore: %v", name, err)
					}
				}
				if got := mineDot(t, restored, opt); got != want {
					t.Errorf("%s split=%d opt=%+v: restore-then-mine diverges from continuous mining\ngot:\n%s\nwant:\n%s",
						name, split, opt, got, want)
				}
			}
		}
	}
}

// TestSnapshotMergeEqualsUnion pins the shard-merge property: partitioning
// a log across k miners, snapshotting each, and restoring all snapshots
// into one miner (in any order) mines the same graph as one miner over the
// whole log.
func TestSnapshotMergeEqualsUnion(t *testing.T) {
	for name, l := range snapshotLogs(t) {
		whole := NewIncrementalMiner()
		if err := whole.AddLog(l); err != nil {
			t.Fatalf("%s: AddLog: %v", name, err)
		}
		want := mineDot(t, whole, Options{})

		const k = 3
		shards := make([]*IncrementalMiner, k)
		for i := range shards {
			shards[i] = NewIncrementalMiner()
		}
		for i, e := range l.Executions {
			if err := shards[i%k].Add(e); err != nil {
				t.Fatalf("%s: Add: %v", name, err)
			}
		}
		// Merge in two different orders; both must equal the whole-log mine.
		for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}} {
			merged := NewIncrementalMiner()
			for _, i := range order {
				if err := merged.RestoreSnapshot(shards[i].Snapshot()); err != nil {
					t.Fatalf("%s: RestoreSnapshot: %v", name, err)
				}
			}
			if merged.Executions() != len(l.Executions) {
				t.Errorf("%s: merged %d executions, want %d", name, merged.Executions(), len(l.Executions))
			}
			if got := mineDot(t, merged, Options{}); got != want {
				t.Errorf("%s order=%v: merged shards diverge from whole-log mine\ngot:\n%s\nwant:\n%s",
					name, order, got, want)
			}
		}
	}
}

// TestSnapshotEncodeDeterministic checks that equal miner states encode to
// byte-identical JSON, that encode/decode round-trips exactly, and that the
// snapshot shares no memory with the live miner.
func TestSnapshotEncodeDeterministic(t *testing.T) {
	l := snapshotLogs(t)["clean"]
	im := NewIncrementalMiner()
	if err := im.AddLog(l); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := im.Snapshot().Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := im.Snapshot().Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of the same state encode differently")
	}
	dec, err := DecodeMinerSnapshot(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("DecodeMinerSnapshot: %v", err)
	}
	if !reflect.DeepEqual(dec, im.Snapshot()) {
		t.Fatal("decode(encode(snapshot)) differs from snapshot")
	}
	// Snapshot isolation: mutating the miner afterwards must not change an
	// already-taken snapshot.
	snap := im.Snapshot()
	before := len(snap.Sigs)
	if err := im.Add(wlog.FromSequence("iso", "Z1", "Z2")); err != nil {
		t.Fatal(err)
	}
	if len(snap.Sigs) != before {
		t.Fatal("snapshot aliases live miner state")
	}
}

func TestSnapshotValidate(t *testing.T) {
	im := NewIncrementalMiner()
	if err := im.AddLog(wlog.LogFromStrings("ABC", "ACB")); err != nil {
		t.Fatal(err)
	}
	good := im.Snapshot()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	bad := *good
	bad.Schema = "bogus/v9"
	if err := NewIncrementalMiner().RestoreSnapshot(&bad); !errors.Is(err, ErrSnapshotSchema) {
		t.Errorf("bad schema: got %v, want ErrSnapshotSchema", err)
	}

	bad = *good
	bad.Executions = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative execution count accepted")
	}

	bad = *good
	bad.Order = append([]PairCount{{From: "A", To: "B", Count: -2}}, good.Order...)
	if err := bad.Validate(); err == nil {
		t.Error("negative pair count accepted")
	}

	bad = *good
	bad.Sigs = [][]string{{"B", "A"}}
	if err := bad.Validate(); err == nil {
		t.Error("unsorted signature set accepted")
	}

	if _, err := DecodeMinerSnapshot(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Error("garbage snapshot decoded")
	}

	// Each case breaks one invariant Snapshot guarantees; a restored state
	// could not represent any of them faithfully.
	for _, c := range []struct {
		name   string
		mutate func(s *MinerSnapshot)
	}{
		{"order pair outside the alphabet", func(s *MinerSnapshot) {
			s.Order = append(slices.Clone(s.Order), PairCount{From: "X", To: "Y", Count: 5})
		}},
		{"cooc pair keyed From > To", func(s *MinerSnapshot) {
			s.Cooc = append(slices.Clone(s.Cooc[1:]), PairCount{From: s.Cooc[0].To, To: s.Cooc[0].From, Count: s.Cooc[0].Count})
		}},
		{"overlap pair keyed From > To", func(s *MinerSnapshot) {
			s.Overlap = []PairCount{{From: "B#1", To: "A#1", Count: 1}}
		}},
		{"duplicate order pair", func(s *MinerSnapshot) {
			s.Order = append(slices.Clone(s.Order), s.Order[0])
		}},
		{"duplicate cooc pair", func(s *MinerSnapshot) {
			s.Cooc = append(slices.Clone(s.Cooc), s.Cooc[0])
		}},
		{"self-pair", func(s *MinerSnapshot) {
			s.Order = append(slices.Clone(s.Order), PairCount{From: "A#1", To: "A#1", Count: 1})
		}},
		{"repeated member in a signature set", func(s *MinerSnapshot) {
			s.Sigs = [][]string{{"A#1", "A#1", "B#1"}}
		}},
		{"signature member outside the alphabet", func(s *MinerSnapshot) {
			s.Sigs = [][]string{{"A#1", "Z#1"}}
		}},
		{"duplicate signature set", func(s *MinerSnapshot) {
			s.Sigs = [][]string{{"A#1", "B#1"}, {"A#1", "B#1"}}
		}},
		{"unsorted activities", func(s *MinerSnapshot) {
			s.Activities = []string{"B#1", "A#1", "C#1"}
		}},
		{"duplicate activity", func(s *MinerSnapshot) {
			s.Activities = []string{"A#1", "B#1", "B#1", "C#1"}
		}},
	} {
		bad := *good
		c.mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
		if err := NewIncrementalMiner().RestoreSnapshot(&bad); err == nil {
			t.Errorf("%s restored", c.name)
		}
	}
}

// TestIncrementalMineContext checks that a cancelled context aborts the
// incremental mine promptly and that an expired deadline surfaces as
// context.DeadlineExceeded.
func TestIncrementalMineContext(t *testing.T) {
	im := NewIncrementalMiner()
	if err := im.AddLog(snapshotLogs(t)["clean"]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := im.MineContext(ctx, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled mine: got %v, want context.Canceled", err)
	}
	g, err := im.MineContext(context.Background(), Options{})
	if err != nil {
		t.Fatalf("MineContext: %v", err)
	}
	var want *graph.Digraph
	if want, err = im.Mine(Options{}); err != nil {
		t.Fatal(err)
	}
	if g.Dot("x") != want.Dot("x") {
		t.Error("MineContext result differs from Mine")
	}
}

// snapshotFixture is a procmine-miner-snapshot/v1 file: the state of an
// IncrementalMiner after adding parityLogs' cyclic fixture. Regenerate it
// with -update-snapshot-fixture only for a deliberate format change.
const snapshotFixture = "testdata/miner-snapshot-v1.json"

var updateSnapshotFixture = flag.Bool("update-snapshot-fixture", false, "rewrite "+snapshotFixture)

// snapshotFixtureDot is the graph mined from snapshotFixture with zero
// options.
const snapshotFixtureDot = `digraph fixture {
  B;
  C;
  D;
  END;
  START;
  B -> C;
  B -> END;
  C -> B;
  C -> END;
  D -> B;
  D -> END;
  START -> B;
  START -> D;
}
`

// TestSnapshotV1Fixture pins the v1 wire format: the committed fixture
// decodes and restores, re-encodes to the same bytes, equals the encoded
// state of adding the same log afresh, and mines the committed graph.
func TestSnapshotV1Fixture(t *testing.T) {
	fresh := NewIncrementalMiner()
	if err := fresh.AddLog(parityLogs(t)["cyclic"]); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := fresh.Snapshot().Encode(&want); err != nil {
		t.Fatal(err)
	}
	if *updateSnapshotFixture {
		if err := os.WriteFile(snapshotFixture, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(snapshotFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Errorf("adding the cyclic fixture log encodes differently from %s", snapshotFixture)
	}
	snap, err := DecodeMinerSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("DecodeMinerSnapshot: %v", err)
	}
	im := NewIncrementalMiner()
	if err := im.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	var got bytes.Buffer
	if err := im.Snapshot().Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Errorf("restore then encode differs from %s:\n%s", snapshotFixture, got.String())
	}
	g, err := im.Mine(Options{})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if dot := g.Dot("fixture"); dot != snapshotFixtureDot {
		t.Errorf("fixture mines\n%s\nwant\n%s", dot, snapshotFixtureDot)
	}
}

// FuzzDecodeMinerSnapshot feeds arbitrary bytes to the snapshot decoder,
// the input of crash recovery. Whatever Validate accepts must restore and
// mine without panicking, and must survive Snapshot → Encode → Decode →
// Restore losslessly: the same encoded bytes and the same mined graph.
func FuzzDecodeMinerSnapshot(f *testing.F) {
	fixture, err := os.ReadFile(snapshotFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add([]byte(`{"schema":"procmine-miner-snapshot/v1","executions":1,"activities":["A#1","B#1"],` +
		`"order":[{"from":"A#1","to":"B#1","count":1}],"overlap":[],` +
		`"cooc":[{"from":"A#1","to":"B#1","count":1}],"sigs":[["A#1","B#1"]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeMinerSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := NewIncrementalMiner()
		if err := first.RestoreSnapshot(snap); err != nil {
			t.Fatalf("RestoreSnapshot of a validated snapshot: %v", err)
		}
		want := mineDot(t, first, Options{})
		var enc bytes.Buffer
		if err := first.Snapshot().Encode(&enc); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeMinerSnapshot(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding an encoded snapshot: %v", err)
		}
		second := NewIncrementalMiner()
		if err := second.RestoreSnapshot(again); err != nil {
			t.Fatalf("RestoreSnapshot after the round trip: %v", err)
		}
		var reenc bytes.Buffer
		if err := second.Snapshot().Encode(&reenc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), reenc.Bytes()) {
			t.Errorf("snapshot changed across the round trip:\n%s\nthen\n%s", enc.String(), reenc.String())
		}
		if got := mineDot(t, second, Options{}); got != want {
			t.Errorf("round trip mines\n%s\nwant\n%s", got, want)
		}
	})
}
