package core

import (
	"slices"
	"strings"

	"procmine/internal/graph"
	"procmine/internal/wlog"
)

// state is the one representation of what Algorithm 2 consumes: an
// interned activity alphabet, the step-2 pair counts over it, and the arena
// of distinct activity sets the marking pass reduces. The batch scan builds
// it (scanWith), IncrementalMiner folds executions into it, and AddFrom
// merges two. IDs are handles in insertion order, but pairs are keyed with
// the label-smaller ID first and sets list members in label order, so a
// merge that remaps IDs by label re-sorts nothing.
type state struct {
	labels []string // ID -> label
	pairs  []pairStat
	// Distinct activity sets: set s is setIDs[setOff[s]:setOff[s+1]].
	setIDs, setOff []int32

	// Lookup maps for writes (see init; scanWith's states have only
	// pairIdx): label -> ID, packed ID pair -> index into pairs, and the
	// packed IDs of every set held.
	ids     map[string]int32
	pairIdx map[uint64]int32
	sets    map[string]bool

	// Per-execution fold scratch.
	distinct, loc []int32
	seen, sig     []byte
}

// pairStat is the step-2 support of one unordered activity pair {u, v},
// labels[u] < labels[v], indexed by count kind.
type pairStat struct {
	u, v int32
	n    [numKinds]int
}

// Count kinds of a pairStat. The first numGroups are MinerSnapshot's pair
// lists; backOrder goes in the order list reversed.
const (
	orderGroup   = iota // executions in which u terminated before v started
	overlapGroup        // executions in which instances of u and v overlapped
	coocGroup           // executions with both, the m of the Section 6 balance rule
	backOrder           // executions in which v terminated before u started
	numKinds

	numGroups = backOrder
)

// init readies an empty state for writes.
func (s *state) init() {
	if s.ids == nil {
		s.ids, s.pairIdx, s.sets = map[string]int32{}, map[uint64]int32{}, map[string]bool{}
		s.setOff = []int32{0}
	}
}

// intern returns label's ID, adding it to the alphabet if new.
func (s *state) intern(label string) int32 {
	if id, ok := s.ids[label]; ok {
		return id
	}
	id := int32(len(s.labels))
	s.labels = append(s.labels, label)
	s.ids[label] = id
	return id
}

// pair returns the counts of {u, v}, labels[u] < labels[v], adding a zero
// entry if new. The pointer is valid until the next pair call.
func (s *state) pair(u, v int32) *pairStat {
	k := uint64(uint32(u))<<32 | uint64(uint32(v))
	i, ok := s.pairIdx[k]
	if !ok {
		i = int32(len(s.pairs))
		s.pairIdx[k] = i
		s.pairs = append(s.pairs, pairStat{u: u, v: v})
	}
	return &s.pairs[i]
}

// addSet adds an activity set, members in label order, unless present.
func (s *state) addSet(ids []int32) {
	s.sig = s.sig[:0]
	for _, id := range ids {
		s.sig = append(s.sig, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	if s.sets[string(s.sig)] {
		return
	}
	s.sets[string(s.sig)] = true
	s.setIDs = append(s.setIDs, ids...)
	s.setOff = append(s.setOff, int32(len(s.setIDs)))
}

// fold adds one execution's step-2 counts to s, each pair at most once as
// in followsCounts; acts holds each step's activity ID. It returns the
// distinct IDs in label order, in scratch the next fold reuses.
func (s *state) fold(acts []int32, steps []wlog.Step) []int32 {
	d := append(s.distinct[:0], acts...)
	slices.Sort(d)
	d = slices.Compact(d)
	slices.SortFunc(d, func(a, b int32) int { return strings.Compare(s.labels[a], s.labels[b]) })
	loc := s.loc[:0]
	for _, a := range acts {
		loc = append(loc, int32(slices.Index(d, a)))
	}
	// seen[a*k+b], a < b, holds a bit per count kind the pair of distinct
	// activities a and b earned in this execution.
	k := len(d)
	seen := append(s.seen[:0], make([]uint8, k*k)...)
	for i := range steps {
		for j := range steps {
			a, b := int(loc[i]), int(loc[j])
			switch {
			case a == b:
			case steps[i].Before(steps[j]) && a < b:
				seen[a*k+b] |= 1 << orderGroup
			case steps[i].Before(steps[j]):
				seen[b*k+a] |= 1 << backOrder
			case i < j && steps[i].Overlaps(steps[j]):
				seen[min(a, b)*k+max(a, b)] |= 1 << overlapGroup
			}
		}
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			p, bits := s.pair(d[a], d[b]), seen[a*k+b]|1<<coocGroup
			for kind := range p.n {
				if bits&(1<<kind) != 0 {
					p.n[kind]++
				}
			}
		}
	}
	s.distinct, s.loc, s.seen = d, loc, seen
	return d
}

// addDense appends the dense counts of cs, over the state's label-ordered
// IDs, as one entry per co-occurring pair (ordered and overlapping pairs
// all co-occur).
func (s *state) addDense(cs *wlog.Counts) {
	n := cs.N
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			cell := u*n + v
			if c := cs.Cooc[cell]; c > 0 {
				s.pairs = append(s.pairs, pairStat{u: int32(u), v: int32(v), n: [numKinds]int{
					orderGroup: int(cs.Order[cell]), overlapGroup: int(cs.Overlap[cell]),
					coocGroup: int(c), backOrder: int(cs.Order[v*n+u]),
				}})
			}
		}
	}
}

// eachCount calls f with every nonzero count, its group and its pair:
// ordered pairs by direction, the others From < To.
func (s *state) eachCount(f func(g int, from, to string, c int)) {
	for _, p := range s.pairs {
		from, to := s.labels[p.u], s.labels[p.v]
		for k, c := range p.n {
			if c > 0 && k == backOrder {
				f(orderGroup, to, from, c)
			} else if c > 0 {
				f(k, from, to, c)
			}
		}
	}
}

// labeledCounts returns the counts as the exported functions' maps.
func (s *state) labeledCounts() [numGroups]map[graph.Edge]int {
	m := [numGroups]map[graph.Edge]int{{}, {}, {}}
	s.eachCount(func(g int, from, to string, c int) { m[g][graph.Edge{From: from, To: to}] = c })
	return m
}
