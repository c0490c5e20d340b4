package wlog

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// StreamText reads the text-log format one event at a time, calling fn for
// each record without materializing the whole log — the entry point for
// feeding very large or live audit trails into an IncrementalMiner.
// Returning a non-nil error from fn stops the scan and propagates the error.
func StreamText(r io.Reader, fn func(Event) error) error {
	_, err := StreamTextWith(r, IngestOptions{}, nil, fn)
	return err
}

// StreamTextWith is StreamText under a recovery policy: unparseable lines
// are dropped (and counted in rep, which may be nil) instead of aborting the
// scan. Under FailFast it behaves exactly like StreamText. A non-nil error
// from fn always stops the scan regardless of policy.
func StreamTextWith(r io.Reader, opts IngestOptions, rep *IngestReport, fn func(Event) error) (*IngestReport, error) {
	rep = ensureReport(rep, opts)
	var d decoder
	return rep, d.text(r, opts, rep, d.stream(fn))
}

// ExecutionStream groups a stream of events into completed executions on
// the fly. Events may interleave across executions; an execution is emitted
// once every START it received has a matching END and Flush or a later
// event for the same execution does not arrive before Close. Because "no
// more events for this execution" is undecidable mid-stream, completion is
// signalled explicitly: Push returns executions it can close opportunistically
// (all instances ended), and Close drains the rest.
//
// Streams built with NewExecutionStreamWith additionally enforce the
// IngestOptions recovery policy and resource watermarks: structurally bad
// events are skipped or quarantine their execution, an execution exceeding
// MaxStepsPerExecution is evicted to quarantine, and when the number of open
// executions would exceed MaxOpenExecutions the stalest one (the open
// execution that has gone longest without an event) is evicted, so an
// endless live trail cannot grow the stream without bound.
type ExecutionStream struct {
	open map[string]*streamExec
	emit func(Execution) error
	opts IngestOptions
	rep  *IngestReport
	seq  int // Push counter; streamExec.lastSeq orders evictions
}

type streamExec struct {
	steps   []Step
	pending map[string][]int // activity -> open step indices
	started int
	ended   int
	lastSeq int // seq of the most recent event for this execution
}

// NewExecutionStream returns a stream that calls emit for each completed
// execution, with the default FailFast policy and no resource limits.
func NewExecutionStream(emit func(Execution) error) *ExecutionStream {
	return NewExecutionStreamWith(IngestOptions{}, nil, emit)
}

// NewExecutionStreamWith returns a stream governed by the given recovery
// policy and watermarks, accumulating skip/quarantine/eviction counts into
// rep (which may be nil; see Report).
func NewExecutionStreamWith(opts IngestOptions, rep *IngestReport, emit func(Execution) error) *ExecutionStream {
	return &ExecutionStream{
		open: map[string]*streamExec{},
		emit: emit,
		opts: opts,
		rep:  ensureReport(rep, opts),
	}
}

// Report returns the stream's ingest report (counts of skipped events,
// quarantined and evicted executions). It is the report passed to
// NewExecutionStreamWith when one was provided.
func (s *ExecutionStream) Report() *IngestReport { return s.rep }

// OpenExecutions returns the number of executions currently held open.
func (s *ExecutionStream) OpenExecutions() int { return len(s.open) }

// bad applies the policy to one bad event: FailFast propagates err; Skip
// drops the event; Quarantine sets the execution aside whole.
func (s *ExecutionStream) bad(e IngestError, err error) error {
	if !s.opts.lenient() {
		return err
	}
	s.rep.record(e)
	s.rep.RecordsSkipped++
	if s.opts.Policy == Quarantine && e.Execution != "" {
		s.quarantineExec(e.Execution)
	}
	if s.rep.overBudget(s.opts) {
		return errTooManyErrors(s.rep, s.opts)
	}
	return nil
}

// quarantineExec drops an open execution (if any) and records its ID so
// later events for it are discarded too.
func (s *ExecutionStream) quarantineExec(id string) {
	delete(s.open, id)
	s.rep.quarantine(id)
}

// Push adds one event. When the event closes an execution's last open
// activity instance, the execution is NOT yet emitted (more instances may
// follow); emission happens in Close, or earlier via EmitCompleted.
func (s *ExecutionStream) Push(ev Event) error {
	s.seq++
	if s.opts.lenient() && s.rep.isQuarantined(ev.ProcessID) {
		// The execution was already set aside; swallow its stragglers.
		s.rep.RecordsSkipped++
		return nil
	}
	se := s.open[ev.ProcessID]
	if se == nil {
		if s.opts.MaxOpenExecutions > 0 && len(s.open) >= s.opts.MaxOpenExecutions {
			if err := s.evictStalest(ev.ProcessID); err != nil {
				return err
			}
		}
		se = &streamExec{pending: map[string][]int{}}
		s.open[ev.ProcessID] = se
	}
	se.lastSeq = s.seq
	switch ev.Type {
	case Start:
		se.pending[ev.Activity] = append(se.pending[ev.Activity], len(se.steps))
		se.steps = append(se.steps, Step{Activity: ev.Activity, Start: ev.Time})
		se.started++
		if s.opts.MaxStepsPerExecution > 0 && len(se.steps) > s.opts.MaxStepsPerExecution {
			e := IngestError{
				Class:     ClassLimit,
				Execution: ev.ProcessID,
				Err:       fmt.Errorf("%w: %d steps > %d", ErrExecutionTooLong, len(se.steps), s.opts.MaxStepsPerExecution),
			}
			if !s.opts.lenient() {
				return fmt.Errorf("wlog: stream: execution %q: %w", ev.ProcessID, e.Err)
			}
			s.rep.record(e)
			s.quarantineExec(ev.ProcessID)
			if s.rep.overBudget(s.opts) {
				return errTooManyErrors(s.rep, s.opts)
			}
		}
	case End:
		q := se.pending[ev.Activity]
		if len(q) == 0 {
			return s.bad(IngestError{
				Class:     ClassStructure,
				Execution: ev.ProcessID,
				Err:       fmt.Errorf("%w: END of %q", ErrEndWithoutStart, ev.Activity),
			}, fmt.Errorf("wlog: stream: execution %q: END of %q without START", ev.ProcessID, ev.Activity))
		}
		idx := q[0]
		if ev.Time.Before(se.steps[idx].Start) {
			// A time-reversed END cannot close the step; the START stays
			// pending and surfaces as unterminated at Close.
			return s.bad(IngestError{
				Class:     ClassStructure,
				Execution: ev.ProcessID,
				Err:       fmt.Errorf("END of %q at %v precedes its START at %v", ev.Activity, ev.Time, se.steps[idx].Start),
			}, fmt.Errorf("wlog: stream: execution %q: END of %q at %v precedes its START at %v",
				ev.ProcessID, ev.Activity, ev.Time, se.steps[idx].Start))
		}
		se.pending[ev.Activity] = q[1:]
		se.steps[idx].End = ev.Time
		se.steps[idx].Output = ev.Output.Clone()
		se.ended++
	default:
		return s.bad(IngestError{
			Class:     ClassSyntax,
			Execution: ev.ProcessID,
			Err:       fmt.Errorf("invalid event type %v", ev.Type),
		}, fmt.Errorf("wlog: stream: invalid event type %v", ev.Type))
	}
	return nil
}

// evictStalest applies the MaxOpenExecutions watermark: the open execution
// with the oldest last event is quarantined (its partial steps are
// discarded). Under FailFast the watermark is a hard error instead.
func (s *ExecutionStream) evictStalest(incoming string) error {
	if !s.opts.lenient() {
		return fmt.Errorf("wlog: stream: %w: %d open, cannot admit %q (MaxOpenExecutions=%d)",
			ErrTooManyOpenExecutions, len(s.open), incoming, s.opts.MaxOpenExecutions)
	}
	stalest, best := "", int(^uint(0)>>1)
	for id, se := range s.open {
		if se.lastSeq < best || (se.lastSeq == best && id < stalest) {
			stalest, best = id, se.lastSeq
		}
	}
	s.rep.record(IngestError{
		Class:     ClassLimit,
		Execution: stalest,
		Err:       fmt.Errorf("%w: evicted to admit %q", ErrTooManyOpenExecutions, incoming),
	})
	s.quarantineExec(stalest)
	if s.rep.overBudget(s.opts) {
		return errTooManyErrors(s.rep, s.opts)
	}
	return nil
}

// EmitCompleted emits and forgets every execution whose instances have all
// ended. Call it at natural boundaries (e.g. end of a day's trail) to bound
// memory; executions that later receive more events would then surface as a
// second execution with the same ID, which Log.Validate flags.
func (s *ExecutionStream) EmitCompleted() error {
	ids := make([]string, 0, len(s.open))
	for id, se := range s.open {
		if se.started == se.ended && se.started > 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		se := s.open[id]
		delete(s.open, id)
		steps := se.steps
		sort.SliceStable(steps, func(i, j int) bool { return steps[i].Start.Before(steps[j].Start) })
		if err := s.emit(Execution{ID: id, Steps: steps}); err != nil {
			return err
		}
	}
	return nil
}

// Close emits all completed executions. Executions still holding unmatched
// STARTs are handled per policy: FailFast returns one error naming *all* of
// them sorted by ID; Skip drops just the unterminated steps and emits what
// remains; Quarantine sets the stuck executions aside whole.
func (s *ExecutionStream) Close() error {
	if err := s.EmitCompleted(); err != nil {
		return err
	}
	stuck := make([]string, 0, len(s.open))
	for id, se := range s.open {
		if se.started != se.ended {
			stuck = append(stuck, id)
		}
	}
	sort.Strings(stuck)
	if len(stuck) == 0 {
		return nil
	}
	if !s.opts.lenient() {
		parts := make([]string, len(stuck))
		for i, id := range stuck {
			se := s.open[id]
			parts[i] = fmt.Sprintf("%q (%d)", id, se.started-se.ended)
		}
		return fmt.Errorf("wlog: stream: %d executions with unterminated activities: %s",
			len(stuck), strings.Join(parts, ", "))
	}
	for _, id := range stuck {
		se := s.open[id]
		for _, a := range sortedKeys(se.pending) {
			for range se.pending[a] {
				s.rep.record(IngestError{
					Class:     ClassStructure,
					Execution: id,
					Err:       fmt.Errorf("%w: activity %q", ErrUnterminatedStart, a),
				})
			}
		}
		if s.opts.Policy == Quarantine {
			s.quarantineExec(id)
			continue
		}
		// Skip: drop the unterminated steps, emit the remainder.
		kept := se.steps[:0]
		for _, st := range se.steps {
			if st.End.IsZero() {
				s.rep.StepsDropped++
				continue
			}
			kept = append(kept, st)
		}
		delete(s.open, id)
		if len(kept) == 0 {
			continue
		}
		sort.SliceStable(kept, func(i, j int) bool { return kept[i].Start.Before(kept[j].Start) })
		if err := s.emit(Execution{ID: id, Steps: kept}); err != nil {
			return err
		}
	}
	if s.rep.overBudget(s.opts) {
		return errTooManyErrors(s.rep, s.opts)
	}
	return nil
}

// StreamCSV reads the CSV codec one event at a time (header row required),
// the CSV counterpart of StreamText.
func StreamCSV(r io.Reader, fn func(Event) error) error {
	_, err := StreamCSVWith(r, IngestOptions{}, nil, fn)
	return err
}

// StreamCSVWith is StreamCSV under a recovery policy; bad rows are dropped
// and counted in rep instead of aborting. Errors carry the 1-based data
// record number (the header is not counted). A malformed header is always
// fatal: with no recognizable schema nothing downstream can recover.
func StreamCSVWith(r io.Reader, opts IngestOptions, rep *IngestReport, fn func(Event) error) (*IngestReport, error) {
	rep = ensureReport(rep, opts)
	var d decoder
	return rep, d.csv(r, opts, rep, d.stream(fn))
}
