package core

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Miner state export/import. The always-on serving layer (internal/serve)
// checkpoints each shard's IncrementalMiner to disk so a crash or restart
// loses at most one snapshot interval. Two properties hold, which the
// round-trip, merge and fixture tests pin:
//
//   - Determinism: Snapshot of a given miner state always produces the same
//     value, and Encode always produces the same bytes — every slice is
//     sorted, nothing depends on map iteration order.
//   - Exactness: RestoreSnapshot decodes the snapshot into a miner's state
//     and merges it with AddFrom, losslessly. Restoring a snapshot into an
//     empty miner and mining yields a graph byte-identical to mining the
//     original, and snapshotting it again encodes the same bytes; restoring
//     several disjoint shards' snapshots equals mining the union of their
//     logs (counts are per-execution integer sums, distinct sets union, so
//     the merge is commutative).

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

// Snapshot exports the miner's accumulated state. The result shares no
// memory with the miner, so it remains valid while the miner keeps
// ingesting.
func (im *IncrementalMiner) Snapshot() *MinerSnapshot {
	st := &im.st
	groups := [numGroups][]PairCount{{}, {}, {}}
	st.eachCount(func(g int, from, to string, c int) {
		groups[g] = append(groups[g], PairCount{From: from, To: to, Count: c})
	})
	s := &MinerSnapshot{
		Schema:     MinerSnapshotSchema,
		Executions: im.executions,
		Activities: append([]string{}, st.labels...),
		Order:      sortPairs(groups[orderGroup]),
		Overlap:    sortPairs(groups[overlapGroup]),
		Cooc:       sortPairs(groups[coocGroup]),
		Sigs:       make([][]string, 0, len(st.setOff)),
	}
	slices.Sort(s.Activities)
	for i := 0; i+1 < len(st.setOff); i++ {
		set := []string{}
		for _, id := range st.setIDs[st.setOff[i]:st.setOff[i+1]] {
			set = append(set, st.labels[id])
		}
		s.Sigs = append(s.Sigs, set)
	}
	slices.SortFunc(s.Sigs, slices.Compare)
	return s
}

// Validate checks that the snapshot is one Snapshot can write, up to the
// order of its pair and signature lists: activities sorted and distinct;
// positive counts of pairs of two distinct activities, each listed once,
// overlap and co-occurrence pairs keyed From < To; and distinct signature
// sets of activities, each sorted and without repeats.
func (s *MinerSnapshot) Validate() error {
	_, err := s.miner()
	return err
}

// miner decodes the snapshot into a fresh miner and validates it against
// the miner's own Snapshot: any violation makes the two differ.
func (s *MinerSnapshot) miner() (*IncrementalMiner, error) {
	if s.Schema != MinerSnapshotSchema {
		return nil, fmt.Errorf("%w: got %q, want %q", ErrSnapshotSchema, s.Schema, MinerSnapshotSchema)
	}
	if s.Executions < 0 {
		return nil, fmt.Errorf("core: snapshot has negative execution count %d", s.Executions)
	}
	im := &IncrementalMiner{executions: s.Executions}
	st := &im.st
	st.init()
	for _, a := range s.Activities {
		st.intern(a)
	}
	for g, group := range [numGroups][]PairCount{s.Order, s.Overlap, s.Cooc} {
		for _, pc := range group {
			u, v, kind := st.intern(pc.From), st.intern(pc.To), g
			if pc.From > pc.To {
				u, v = v, u
				if g == orderGroup {
					kind = backOrder
				}
			}
			if u != v {
				st.pair(u, v).n[kind] += pc.Count
			}
		}
	}
	for _, set := range s.Sigs {
		ids := make([]int32, 0, len(set))
		for _, a := range set {
			ids = append(ids, st.intern(a))
		}
		// Activities are sorted in a valid snapshot, so ID order is label
		// order; any snapshot where it is not fails the check below.
		slices.Sort(ids)
		st.addSet(slices.Compact(ids))
	}

	canon := im.Snapshot()
	sigs := slices.Clone(s.Sigs)
	slices.SortFunc(sigs, slices.Compare)
	if !slices.Equal(s.Activities, canon.Activities) ||
		!slices.Equal(sortPairs(slices.Clone(s.Order)), canon.Order) ||
		!slices.Equal(sortPairs(slices.Clone(s.Overlap)), canon.Overlap) ||
		!slices.Equal(sortPairs(slices.Clone(s.Cooc)), canon.Cooc) ||
		!slices.EqualFunc(sigs, canon.Sigs, slices.Equal) {
		return nil, errors.New("core: snapshot is not one Snapshot writes: a stray, unsorted or repeated " +
			"activity, a self-pair, a duplicate pair or set, a From > To overlap or cooc key, or a non-positive count")
	}
	return im, nil
}

// sortPairs sorts a pair list by (From, To) in place and returns it.
func sortPairs(pcs []PairCount) []PairCount {
	slices.SortFunc(pcs, func(a, b PairCount) int {
		return cmp.Or(strings.Compare(a.From, b.From), strings.Compare(a.To, b.To))
	})
	return pcs
}

// RestoreSnapshot decodes a snapshot into a fresh miner and merges that
// into im with AddFrom. Restoring into a fresh miner reproduces the
// snapshotted state exactly;
// restoring several snapshots merges them commutatively, so shard states
// taken over disjoint execution sets combine into the state of mining all
// their executions in one miner.
func (im *IncrementalMiner) RestoreSnapshot(s *MinerSnapshot) error {
	other, err := s.miner()
	if err != nil {
		return err
	}
	im.AddFrom(other)
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
