package wlog

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file implements fault-tolerant ingestion. The paper assumes the
// Flowmark audit trail is well-formed and handles only semantic noise
// (Section 6); real trails also carry *structural* damage — garbage lines,
// unmatched ENDs, truncated tails. Recovery policies let the decoders and
// the assembler absorb such damage record by record, producing an
// IngestReport instead of dying on the first bad record.

// Policy selects how ingestion reacts to a bad record.
type Policy int

const (
	// FailFast aborts on the first bad record — the paper's well-formed-log
	// assumption, and the default (zero value), so existing behavior is
	// unchanged.
	FailFast Policy = iota
	// Skip drops the offending record (or, for structural damage discovered
	// at assembly, the offending step) and keeps everything else. The
	// surviving executions may be partial, which Algorithm 2 tolerates.
	Skip
	// Quarantine sets aside *whole* executions touched by a bad event, so
	// every execution that reaches the miner is internally conformal.
	Quarantine
)

// String names the policy as accepted by the CLI.
func (p Policy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case Skip:
		return "skip"
	case Quarantine:
		return "quarantine"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ErrorClass buckets ingestion errors for the report.
type ErrorClass string

const (
	// ClassSyntax marks records that could not be decoded at all: garbage
	// lines, bad timestamps, unknown event types.
	ClassSyntax ErrorClass = "syntax"
	// ClassStructure marks well-formed records that violate the execution
	// structure: END without a matching START, STARTs that never terminate.
	ClassStructure ErrorClass = "structure"
	// ClassLimit marks executions evicted by a resource watermark
	// (MaxOpenExecutions, MaxStepsPerExecution) or an error budget.
	ClassLimit ErrorClass = "limit"
)

// IngestOptions configures fault-tolerant ingestion. The zero value is
// FailFast with no limits — byte-for-byte the pre-existing behavior.
type IngestOptions struct {
	// Policy selects the recovery policy.
	Policy Policy

	// MaxErrors aborts ingestion (with ErrTooManyErrors) once more than
	// this many records have been skipped or quarantined, so a lenient
	// policy cannot silently eat an entirely-garbage input. 0 = unlimited.
	MaxErrors int

	// MaxSampleErrors bounds the per-error samples kept in the report
	// (counts are always exact). 0 means DefaultMaxSampleErrors.
	MaxSampleErrors int

	// MaxOpenExecutions bounds how many incomplete executions an
	// ExecutionStream keeps in memory; pushing an event for a new execution
	// beyond the watermark evicts the stalest open execution to quarantine
	// (FailFast: returns ErrTooManyOpenExecutions instead). 0 = unlimited.
	MaxOpenExecutions int

	// MaxStepsPerExecution bounds the steps of a single execution; an
	// execution growing past the watermark is quarantined whole (FailFast:
	// ErrExecutionTooLong). 0 = unlimited.
	MaxStepsPerExecution int
}

// DefaultMaxSampleErrors is the sample-error cap used when
// IngestOptions.MaxSampleErrors is zero.
const DefaultMaxSampleErrors = 10

// lenient reports whether the policy tolerates bad records.
func (o IngestOptions) lenient() bool { return o.Policy == Skip || o.Policy == Quarantine }

// Typed ingestion errors; all are returned wrapped with context.
var (
	// ErrTooManyErrors aborts lenient ingestion when IngestOptions.MaxErrors
	// is exceeded.
	ErrTooManyErrors = errors.New("wlog: too many bad records")
	// ErrTooManyOpenExecutions is returned under FailFast when an
	// ExecutionStream hits the MaxOpenExecutions watermark.
	ErrTooManyOpenExecutions = errors.New("wlog: too many open executions")
	// ErrExecutionTooLong is returned under FailFast when one execution
	// exceeds MaxStepsPerExecution steps.
	ErrExecutionTooLong = errors.New("wlog: execution exceeds step limit")
	// ErrEndWithoutStart marks an END event with no open START to pair with.
	ErrEndWithoutStart = errors.New("wlog: END without START")
	// ErrUnterminatedStart marks a START whose END never arrived.
	ErrUnterminatedStart = errors.New("wlog: START never terminated")
)

// IngestError is one recorded ingestion failure.
type IngestError struct {
	// Class buckets the error.
	Class ErrorClass
	// Record is the 1-based line (text codec) or record (CSV/JSON/XES data
	// record) number, 0 when unknown (e.g. assembly-time errors).
	Record int
	// Execution is the affected execution ID, "" when unknown.
	Execution string
	// Err is the underlying error.
	Err error
}

// Error formats the failure with its position and execution context.
func (e IngestError) Error() string {
	var b strings.Builder
	if e.Record > 0 {
		fmt.Fprintf(&b, "record %d: ", e.Record)
	}
	if e.Execution != "" {
		fmt.Fprintf(&b, "execution %q: ", e.Execution)
	}
	b.WriteString(e.Err.Error())
	return b.String()
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e IngestError) Unwrap() error { return e.Err }

// IngestReport accumulates what fault-tolerant ingestion saw: exact counts
// per error class, the set of quarantined executions, and the first few
// sample errors with positions. One report can span the whole pipeline
// (decode + assembly), so ReadLogWith threads a single report through both.
type IngestReport struct {
	// RecordsRead counts input records seen, good or bad (text: non-blank
	// non-comment lines; CSV: data rows; JSON/XES: event elements).
	RecordsRead int
	// EventsDecoded counts records successfully decoded into events.
	EventsDecoded int
	// RecordsSkipped counts records dropped under Skip/Quarantine (bad
	// records, plus events discarded because their execution is quarantined).
	RecordsSkipped int
	// StepsDropped counts assembled steps discarded under Skip (unterminated
	// STARTs).
	StepsDropped int
	// ExecutionsQuarantined counts executions set aside whole.
	ExecutionsQuarantined int
	// QuarantinedIDs lists the quarantined execution IDs, sorted.
	QuarantinedIDs []string
	// Errors holds exact error counts by class.
	Errors map[ErrorClass]int
	// Samples holds the first MaxSampleErrors errors with positions.
	Samples []IngestError

	maxSamples  int
	quarantined map[string]bool
}

// NewIngestReport returns an empty report honoring the options' sample cap.
func NewIngestReport(opts IngestOptions) *IngestReport {
	max := opts.MaxSampleErrors
	if max <= 0 {
		max = DefaultMaxSampleErrors
	}
	return &IngestReport{
		Errors:      map[ErrorClass]int{},
		maxSamples:  max,
		quarantined: map[string]bool{},
	}
}

// ensureReport lets internal pipelines run without a caller-provided report.
func ensureReport(rep *IngestReport, opts IngestOptions) *IngestReport {
	if rep == nil {
		return NewIngestReport(opts)
	}
	if rep.Errors == nil {
		rep.Errors = map[ErrorClass]int{}
	}
	if rep.quarantined == nil {
		rep.quarantined = map[string]bool{}
	}
	if rep.maxSamples <= 0 {
		if rep.maxSamples = opts.MaxSampleErrors; rep.maxSamples <= 0 {
			rep.maxSamples = DefaultMaxSampleErrors
		}
	}
	return rep
}

// TotalErrors returns the number of recorded errors across all classes.
func (r *IngestReport) TotalErrors() int {
	n := 0
	for _, c := range r.Errors {
		n += c
	}
	return n
}

// record counts one error and keeps it as a sample if below the cap.
func (r *IngestReport) record(e IngestError) {
	r.Errors[e.Class]++
	if len(r.Samples) < r.maxSamples {
		r.Samples = append(r.Samples, e)
	}
}

// overBudget reports whether the error budget is exhausted.
func (r *IngestReport) overBudget(opts IngestOptions) bool {
	return opts.MaxErrors > 0 && r.TotalErrors() > opts.MaxErrors
}

// quarantine marks an execution as set aside (idempotent).
func (r *IngestReport) quarantine(id string) {
	if r.quarantined[id] {
		return
	}
	r.quarantined[id] = true
	r.ExecutionsQuarantined++
	r.QuarantinedIDs = append(r.QuarantinedIDs, id)
	sort.Strings(r.QuarantinedIDs)
}

// isQuarantined reports whether the execution was already set aside.
func (r *IngestReport) isQuarantined(id string) bool { return r.quarantined[id] }

// Clean reports whether ingestion saw no errors at all.
func (r *IngestReport) Clean() bool { return r.TotalErrors() == 0 }

// Summary renders a one-line digest, e.g.
// "1000 records: 980 events, 12 skipped, 2 executions quarantined (errors: structure 8, syntax 4)".
func (r *IngestReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d records: %d events", r.RecordsRead, r.EventsDecoded)
	if r.RecordsSkipped > 0 {
		fmt.Fprintf(&b, ", %d skipped", r.RecordsSkipped)
	}
	if r.StepsDropped > 0 {
		fmt.Fprintf(&b, ", %d steps dropped", r.StepsDropped)
	}
	if r.ExecutionsQuarantined > 0 {
		fmt.Fprintf(&b, ", %d executions quarantined", r.ExecutionsQuarantined)
	}
	if !r.Clean() {
		classes := make([]string, 0, len(r.Errors))
		for c := range r.Errors {
			classes = append(classes, string(c))
		}
		sort.Strings(classes)
		parts := make([]string, len(classes))
		for i, c := range classes {
			parts[i] = fmt.Sprintf("%s %d", c, r.Errors[ErrorClass(c)])
		}
		fmt.Fprintf(&b, " (errors: %s)", strings.Join(parts, ", "))
	}
	return b.String()
}

// WriteReport renders the full report including sample errors and the
// quarantined execution IDs.
func (r *IngestReport) WriteReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "ingest: %s\n", r.Summary()); err != nil {
		return err
	}
	for _, s := range r.Samples {
		if _, err := fmt.Fprintf(w, "ingest:   [%s] %s\n", s.Class, s.Error()); err != nil {
			return err
		}
	}
	if n := r.TotalErrors() - len(r.Samples); n > 0 {
		if _, err := fmt.Fprintf(w, "ingest:   ... and %d more errors\n", n); err != nil {
			return err
		}
	}
	if len(r.QuarantinedIDs) > 0 {
		if _, err := fmt.Fprintf(w, "ingest: quarantined: %s\n", strings.Join(r.QuarantinedIDs, ", ")); err != nil {
			return err
		}
	}
	return nil
}

// handleBadRecord applies the policy to a decode-time error: FailFast
// returns it, lenient policies record and absorb it (or abort when the error
// budget is exhausted). The returned error, if any, ends the scan.
func handleBadRecord(opts IngestOptions, rep *IngestReport, e IngestError) error {
	if !opts.lenient() {
		return fmt.Errorf("wlog: %s: %w", e.Class, e)
	}
	rep.record(e)
	rep.RecordsSkipped++
	if rep.overBudget(opts) {
		return errTooManyErrors(rep, opts)
	}
	return nil
}

// errTooManyErrors is the error-budget failure of lenient ingestion.
func errTooManyErrors(rep *IngestReport, opts IngestOptions) error {
	return fmt.Errorf("%w: %d errors exceed MaxErrors=%d", ErrTooManyErrors, rep.TotalErrors(), opts.MaxErrors)
}

// sortedKeys returns the map's keys sorted, for deterministic error order.
func sortedKeys(m map[string][]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
