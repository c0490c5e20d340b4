package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"procmine/internal/graph"
)

// Miner state export/import. The always-on serving layer (internal/serve)
// checkpoints each shard's IncrementalMiner to disk so a crash or restart
// loses at most one snapshot interval; the same machinery merges shard
// states into one global model. Both uses demand two properties, which the
// round-trip and merge property tests pin:
//
//   - Determinism: Snapshot of a given miner state always produces the same
//     value, and Encode always produces the same bytes — every slice is
//     sorted, nothing depends on map iteration order.
//   - Exactness: RestoreSnapshot is a lossless, additive merge. Restoring a
//     snapshot into an empty miner and mining yields a graph byte-identical
//     to mining the original; restoring several disjoint shards' snapshots
//     equals mining the union of their logs (counts are per-execution
//     integer sums, signature sets union, so the merge is commutative).

// MinerSnapshotSchema identifies the snapshot wire format. Decode rejects
// other schemas so a future format change cannot be misread silently.
const MinerSnapshotSchema = "procmine-miner-snapshot/v1"

// ErrSnapshotSchema is returned when decoding a snapshot whose schema field
// does not match MinerSnapshotSchema.
var ErrSnapshotSchema = errors.New("core: unsupported miner snapshot schema")

// PairCount is one accumulated pair counter of a MinerSnapshot.
type PairCount struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Count int    `json:"count"`
}

// MinerSnapshot is the complete serializable state of an IncrementalMiner:
// the labeled activity alphabet, the step-2 pair counters, and the distinct
// activity-set signatures the marking pass consumes. All slices are sorted,
// so equal miner states produce deep-equal snapshots and identical encoded
// bytes.
type MinerSnapshot struct {
	Schema     string      `json:"schema"`
	Executions int         `json:"executions"`
	Activities []string    `json:"activities"`
	Order      []PairCount `json:"order"`
	Overlap    []PairCount `json:"overlap"`
	Cooc       []PairCount `json:"cooc"`
	Sigs       [][]string  `json:"sigs"`
}

// pairCountsOf flattens a count map into a (From, To)-sorted slice.
func pairCountsOf(m map[graph.Edge]int) []PairCount {
	out := make([]PairCount, 0, len(m))
	for e, c := range m {
		out = append(out, PairCount{From: e.From, To: e.To, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Snapshot exports the miner's accumulated state. The result shares no
// memory with the miner, so it remains valid while the miner keeps
// ingesting.
func (im *IncrementalMiner) Snapshot() *MinerSnapshot {
	im.init()
	s := &MinerSnapshot{
		Schema:     MinerSnapshotSchema,
		Executions: im.executions,
		Activities: make([]string, 0, len(im.activities)),
		Order:      pairCountsOf(im.counts.order),
		Overlap:    pairCountsOf(im.counts.overlap),
		Cooc:       pairCountsOf(im.counts.cooc),
		Sigs:       make([][]string, 0, len(im.sigs)),
	}
	for a := range im.activities {
		s.Activities = append(s.Activities, a)
	}
	sort.Strings(s.Activities)
	keys := make([]string, 0, len(im.sigs))
	for k := range im.sigs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		set := im.sigs[k]
		cp := make([]string, len(set))
		copy(cp, set)
		s.Sigs = append(s.Sigs, cp)
	}
	return s
}

// Validate checks the snapshot's structural invariants: schema, non-negative
// counts, and sorted signature sets.
func (s *MinerSnapshot) Validate() error {
	if s.Schema != MinerSnapshotSchema {
		return fmt.Errorf("%w: got %q, want %q", ErrSnapshotSchema, s.Schema, MinerSnapshotSchema)
	}
	if s.Executions < 0 {
		return fmt.Errorf("core: snapshot has negative execution count %d", s.Executions)
	}
	for _, group := range [][]PairCount{s.Order, s.Overlap, s.Cooc} {
		for _, pc := range group {
			if pc.Count <= 0 {
				return fmt.Errorf("core: snapshot pair %s->%s has non-positive count %d", pc.From, pc.To, pc.Count)
			}
		}
	}
	for _, set := range s.Sigs {
		if !sort.StringsAreSorted(set) {
			return fmt.Errorf("core: snapshot signature set %v is not sorted", set)
		}
	}
	return nil
}

// RestoreSnapshot merges a snapshot's counts into the miner: pair counters
// add, activity alphabets and signature sets union, execution counts sum.
// Restoring into a fresh miner reproduces the snapshotted state exactly;
// restoring several snapshots merges them commutatively, so shard states
// taken over disjoint execution sets combine into the state of mining all
// their executions in one miner.
func (im *IncrementalMiner) RestoreSnapshot(s *MinerSnapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	im.init()
	im.executions += s.Executions
	for _, a := range s.Activities {
		im.activities[a] = true
	}
	for _, pc := range s.Order {
		im.counts.order[graph.Edge{From: pc.From, To: pc.To}] += pc.Count
	}
	for _, pc := range s.Overlap {
		im.counts.overlap[graph.Edge{From: pc.From, To: pc.To}] += pc.Count
	}
	for _, pc := range s.Cooc {
		im.counts.cooc[graph.Edge{From: pc.From, To: pc.To}] += pc.Count
	}
	for _, set := range s.Sigs {
		cp := make([]string, len(set))
		copy(cp, set)
		im.sigs[signature(cp)] = cp
	}
	return nil
}

// Encode writes the snapshot as deterministic, indented JSON: the same
// miner state always encodes to the same bytes.
func (s *MinerSnapshot) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("core: encoding miner snapshot: %w", err)
	}
	return nil
}

// DecodeMinerSnapshot reads and validates a snapshot written by Encode.
func DecodeMinerSnapshot(r io.Reader) (*MinerSnapshot, error) {
	var s MinerSnapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding miner snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
