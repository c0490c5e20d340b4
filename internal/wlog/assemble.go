package wlog

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// ReadTextLogWith reads the text codec straight into a Log under a recovery
// policy, accumulating into rep (which may be nil): one pass that decodes,
// groups and pairs, equivalent to ReadTextWith followed by AssembleWith on
// the same report, without the intermediate []Event.
func ReadTextLogWith(r io.Reader, opts IngestOptions, rep *IngestReport) (*Log, *IngestReport, error) {
	return readLog((*decoder).text, r, opts, rep)
}

// ReadCSVLogWith is ReadTextLogWith for the CSV codec (header row required):
// equivalent to ReadCSVWith followed by AssembleWith on the same report.
func ReadCSVLogWith(r io.Reader, opts IngestOptions, rep *IngestReport) (*Log, *IngestReport, error) {
	return readLog((*decoder).csv, r, opts, rep)
}

// codec is a decoder method that decodes r record by record into sink.
type codec func(d *decoder, r io.Reader, opts IngestOptions, rep *IngestReport, sink func(rawEvent) error) error

// decodeAll decodes every record of r, collecting them in input order.
func decodeAll(c codec, r io.Reader, opts IngestOptions, rep *IngestReport) (*decoder, []rawEvent, error) {
	d := &decoder{}
	var evs []rawEvent
	err := c(d, r, opts, rep, func(e rawEvent) error {
		if len(evs) == cap(evs) {
			// Double instead of append's 1.25× growth for large slices,
			// which allocates about five times the final size: the
			// records are transient, so spare capacity costs nothing.
			evs = slices.Grow(evs, max(len(evs), 1024))
		}
		evs = append(evs, e)
		return nil
	})
	return d, evs, err
}

func readLog(c codec, r io.Reader, opts IngestOptions, rep *IngestReport) (*Log, *IngestReport, error) {
	rep = ensureReport(rep, opts)
	d, evs, err := decodeAll(c, r, opts, rep)
	if err != nil {
		return nil, rep, err
	}
	l, err := assemble(d, evs, nil, opts, rep)
	return l, rep, err
}

// Assemble groups raw event records into executions: records are bucketed by
// ProcessID, sorted by time, and each END event is paired with the earliest
// unmatched START of the same activity (FIFO pairing, which is exact for
// non-overlapping instances of the same activity and a standard convention
// otherwise). Steps are then ordered by start time.
//
// It returns an error when an END has no matching START, or a START never
// terminates (naming the alphabetically first such activity).
func Assemble(events []Event) (*Log, error) {
	l, _, err := AssembleWith(events, IngestOptions{}, nil)
	return l, err
}

// AssembleWith groups raw event records into executions under a recovery
// policy, accumulating into rep (which may be nil). Under FailFast it matches
// Assemble. Under Skip, an END without a START is dropped and a START that
// never ends loses just that step. Under Quarantine, any execution touched
// by either fault is set aside whole and its ID recorded, preserving
// conformality of what remains. Executions left empty are dropped silently
// only if they were quarantined; otherwise an empty execution cannot arise
// (every kept step decoded cleanly).
//
// Events are ordered by their wall-clock time (time.Time.Before without
// monotonic readings); steps keep the events' time.Time values and copies
// of their outputs.
func AssembleWith(events []Event, opts IngestOptions, rep *IngestReport) (*Log, *IngestReport, error) {
	rep = ensureReport(rep, opts)
	var d decoder
	evs := make([]rawEvent, len(events))
	for i := range events {
		ev := &events[i]
		e := &evs[i]
		e.sec, e.nsec = ev.Time.Unix(), int32(ev.Time.Nanosecond())
		e.proc = d.procs.stringID(ev.ProcessID, false)
		e.act = d.acts.stringID(ev.Activity, false)
		e.kind = kindOf(ev.Type)
		e.outLen = -1
		if e.kind == kindEnd && ev.Output != nil {
			e.outOff, e.outLen = int32(len(d.outs)), int32(len(ev.Output))
			d.outs = append(d.outs, ev.Output...)
		}
	}
	l, err := assemble(&d, evs, events, opts, rep)
	return l, rep, err
}

// assemble groups records into executions, the one assembler behind every
// batch reader. Records are bucketed by process with a stable counting sort
// (buckets visited in process-ID order), each bucket is stably sorted by
// time, and END events are paired FIFO with open STARTs of the same
// activity through per-activity queues. Steps are written into one shared
// arena; each execution gets a capacity-clipped slice of it, so appending
// to one execution's steps can never clobber a neighbour's. Because STARTs
// are visited in time order, each execution's steps come out in start
// order without a further sort.
//
// When no kept execution repeats an activity, the log's columnar view is
// built from the interned IDs and attached (see Log.Columnar). Cyclic logs
// are mined through their labeled form, so they get none.
func assemble(d *decoder, evs []rawEvent, src []Event, opts IngestOptions, rep *IngestReport) (*Log, error) {
	procs, acts := d.procs.list, d.acts.list
	// timeOf returns the caller's own time value when there is one, so its
	// location survives assembly.
	timeOf := func(i int32) time.Time {
		if src != nil {
			return src[i].Time
		}
		return evs[i].time()
	}

	// Stable counting sort of record indices by process.
	bucket := make([]int32, len(procs)+1)
	starts := 0
	for i := range evs {
		bucket[evs[i].proc+1]++
		if evs[i].kind == kindStart {
			starts++
		}
	}
	for p := range procs {
		bucket[p+1] += bucket[p]
	}
	order := make([]int32, len(evs))
	fill := slices.Clone(bucket[:len(procs)])
	for i := range evs {
		p := evs[i].proc
		order[fill[p]] = int32(i)
		fill[p]++
	}
	byName := make([]int32, len(procs))
	for p := range byName {
		byName[p] = int32(p)
	}
	slices.SortFunc(byName, func(x, y int32) int { return strings.Compare(procs[x], procs[y]) })

	// Per-activity FIFO queues of open steps, linked through next and
	// invalidated per execution by generation instead of cleared.
	qGen := make([]int32, len(acts))
	qHead := make([]int32, len(acts))
	qTail := make([]int32, len(acts))
	next := make([]int32, starts)
	steps := make([]Step, 0, starts)
	stepAct := make([]int32, 0, starts)
	var touched, stuck []int32

	// Repeat detection and the alphabet of kept steps, for the columnar
	// view.
	seen := make([]int32, len(acts))
	used := make([]bool, len(acts))
	repeats := false

	execs := make([]Execution, 0, len(procs))
	byTime := func(x, y int32) int {
		if c := cmp.Compare(evs[x].sec, evs[y].sec); c != 0 {
			return c
		}
		return cmp.Compare(evs[x].nsec, evs[y].nsec)
	}
	for g, p := range byName {
		gen := int32(g + 1)
		recs := order[bucket[p]:bucket[p+1]]
		if !slices.IsSortedFunc(recs, byTime) {
			slices.SortStableFunc(recs, byTime)
		}
		pid := procs[p]
		lo := len(steps)
		touched = touched[:0]
		bad := false // execution touched by a structural fault
		for _, i := range recs {
			e := &evs[i]
			if qGen[e.act] != gen {
				qGen[e.act], qHead[e.act], qTail[e.act] = gen, -1, -1
				touched = append(touched, e.act)
			}
			switch e.kind {
			case kindStart:
				k := int32(len(steps))
				steps = append(steps, Step{Activity: acts[e.act], Start: timeOf(i)})
				stepAct = append(stepAct, e.act)
				next[k] = -1
				if t := qTail[e.act]; t >= 0 {
					next[t] = k
				} else {
					qHead[e.act] = k
				}
				qTail[e.act] = k
			case kindEnd:
				k := qHead[e.act]
				if k < 0 {
					if !opts.lenient() {
						return nil, fmt.Errorf("wlog: execution %q: END of %q at %v without a START", pid, acts[e.act], timeOf(i))
					}
					bad = true
					rep.record(IngestError{
						Class:     ClassStructure,
						Execution: pid,
						Err:       fmt.Errorf("%w: END of %q at %v", ErrEndWithoutStart, acts[e.act], timeOf(i)),
					})
					rep.RecordsSkipped++
					continue
				}
				if qHead[e.act] = next[k]; next[k] < 0 {
					qTail[e.act] = -1
				}
				steps[k].End = timeOf(i)
				steps[k].Output = d.output(e)
			default:
				if !opts.lenient() {
					return nil, fmt.Errorf("wlog: execution %q: invalid event type %v", pid, src[i].Type)
				}
				bad = true
				rep.record(IngestError{
					Class:     ClassSyntax,
					Execution: pid,
					Err:       fmt.Errorf("invalid event type %v", src[i].Type),
				})
				rep.RecordsSkipped++
			}
		}

		// Unterminated STARTs, reported by activity name for a
		// deterministic message.
		stuck = stuck[:0]
		for _, act := range touched {
			if qHead[act] >= 0 {
				stuck = append(stuck, act)
			}
		}
		slices.SortFunc(stuck, func(x, y int32) int { return strings.Compare(acts[x], acts[y]) })
		if len(stuck) > 0 && !opts.lenient() {
			return nil, fmt.Errorf("wlog: execution %q: activity %q started but never ended", pid, acts[stuck[0]])
		}
		for _, act := range stuck {
			for k := qHead[act]; k >= 0; k = next[k] {
				bad = true
				rep.record(IngestError{
					Class:     ClassStructure,
					Execution: pid,
					Err:       fmt.Errorf("%w: activity %q", ErrUnterminatedStart, acts[act]),
				})
			}
		}
		if opts.lenient() && opts.MaxStepsPerExecution > 0 && len(steps)-lo > opts.MaxStepsPerExecution {
			bad = true
			rep.record(IngestError{
				Class:     ClassLimit,
				Execution: pid,
				Err:       fmt.Errorf("%w: %d steps > %d", ErrExecutionTooLong, len(steps)-lo, opts.MaxStepsPerExecution),
			})
		}
		if bad && opts.Policy == Quarantine {
			rep.quarantine(pid)
			clear(steps[lo:])
			steps, stepAct = steps[:lo], stepAct[:lo]
			if rep.overBudget(opts) {
				return nil, errTooManyErrors(rep, opts)
			}
			continue
		}
		// Skip: drop unterminated steps, keep the rest.
		hi := len(steps)
		if opts.lenient() {
			hi = lo
			for k := lo; k < len(steps); k++ {
				if steps[k].End.IsZero() {
					rep.StepsDropped++
					continue
				}
				steps[hi], stepAct[hi] = steps[k], stepAct[k]
				hi++
			}
			clear(steps[hi:])
			steps, stepAct = steps[:hi], stepAct[:hi]
			if rep.overBudget(opts) {
				return nil, errTooManyErrors(rep, opts)
			}
			if hi == lo {
				continue
			}
		}
		for _, act := range stepAct[lo:hi] {
			if seen[act] == gen {
				repeats = true
			}
			seen[act], used[act] = gen, true
		}
		execs = append(execs, Execution{ID: pid, Steps: steps[lo:hi:hi]})
	}

	if len(execs) == 0 {
		execs = nil
	}
	l := &Log{Executions: execs}
	if !repeats {
		l.attachColumnar(acts, used, stepAct)
	}
	return l, nil
}

// attachColumnar builds the log's columnar view from the assembler's
// interned activity IDs (stepAct, parallel to the concatenated steps of
// l.Executions), remapped in place to sorted-label order over the
// activities used, and attaches it unchecked: Log.Columnar checks it
// against the steps on first use, so edits made before then are not
// missed.
func (l *Log) attachColumnar(acts []string, used []bool, stepAct []int32) {
	var labels []string
	for a, u := range used {
		if u {
			labels = append(labels, acts[a])
		}
	}
	in := NewInterner(labels)
	dense := make([]int32, len(acts))
	for a, u := range used {
		if u {
			dense[a] = in.ids[acts[a]]
		}
	}
	for k, a := range stepAct {
		stepAct[k] = dense[a]
	}
	l.col, l.colUnchecked = newColumnar(in, l, stepAct), true
}
