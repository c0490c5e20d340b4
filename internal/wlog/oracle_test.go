package wlog

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The differential oracle: a transcription of the string-keyed ingest
// pipeline the single-pass reader replaced — a bufio.Scanner line string
// split by strings.Fields into an Event, a csv.Reader row into an Event,
// and executions grouped through a map[string][]Event. The only departure
// from the original is the FailFast unterminated-START error, which now
// names the alphabetically first activity (the original ranged over a map
// and named an arbitrary one).

func oracleParseTextLine(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Event{}, fmt.Errorf("need at least 4 fields, got %d", len(fields))
	}
	typ, err := ParseEventType(fields[2])
	if err != nil {
		return Event{}, err
	}
	ns, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad timestamp %q: %w", fields[3], err)
	}
	ev := Event{ProcessID: fields[0], Activity: fields[1], Type: typ, Time: time.Unix(0, ns).UTC()}
	for _, f := range fields[4:] {
		v, err := strconv.Atoi(f)
		if err != nil {
			return Event{}, fmt.Errorf("bad output value %q: %w", f, err)
		}
		ev.Output = append(ev.Output, v)
	}
	return ev, nil
}

func oracleStreamText(r io.Reader, opts IngestOptions, rep *IngestReport, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rep.RecordsRead++
		ev, err := oracleParseTextLine(line)
		if err != nil {
			if !opts.lenient() {
				return fmt.Errorf("wlog: line %d: %w", lineno, err)
			}
			if err := handleBadRecord(opts, rep, IngestError{Class: ClassSyntax, Record: lineno, Err: err}); err != nil {
				return err
			}
			continue
		}
		rep.EventsDecoded++
		if err := fn(ev); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("wlog: scanning: %w", err)
	}
	return nil
}

func oracleDecodeCSVRecord(rec []string) (Event, error) {
	typ, err := ParseEventType(rec[2])
	if err != nil {
		return Event{}, err
	}
	ns, err := strconv.ParseInt(rec[3], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("wlog: bad CSV timestamp %q: %w", rec[3], err)
	}
	ev := Event{ProcessID: rec[0], Activity: rec[1], Type: typ, Time: time.Unix(0, ns).UTC()}
	if rec[4] != "" {
		for _, f := range strings.Split(rec[4], ";") {
			v, err := strconv.Atoi(f)
			if err != nil {
				return Event{}, fmt.Errorf("wlog: bad CSV output value %q: %w", f, err)
			}
			ev.Output = append(ev.Output, v)
		}
	}
	return ev, nil
}

func oracleStreamCSV(r io.Reader, opts IngestOptions, rep *IngestReport, fn func(Event) error) error {
	want := csvHeader()
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(want)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("wlog: reading CSV header: %w", err)
	}
	for i, h := range want {
		if header[i] != h {
			return fmt.Errorf("wlog: CSV header column %d is %q, want %q", i, header[i], h)
		}
	}
	recno := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		recno++
		if err != nil {
			rep.RecordsRead++
			if !opts.lenient() {
				return fmt.Errorf("wlog: CSV record %d: %w", recno, err)
			}
			if err := handleBadRecord(opts, rep, IngestError{Class: ClassSyntax, Record: recno, Err: err}); err != nil {
				return err
			}
			continue
		}
		rep.RecordsRead++
		ev, err := oracleDecodeCSVRecord(rec)
		if err != nil {
			if !opts.lenient() {
				return fmt.Errorf("wlog: CSV record %d: %w", recno, err)
			}
			if err := handleBadRecord(opts, rep, IngestError{Class: ClassSyntax, Record: recno, Err: err}); err != nil {
				return err
			}
			continue
		}
		rep.EventsDecoded++
		if err := fn(ev); err != nil {
			return err
		}
	}
}

func oracleAssemble(events []Event) (*Log, error) {
	byProc := map[string][]Event{}
	var order []string
	for _, ev := range events {
		if _, seen := byProc[ev.ProcessID]; !seen {
			order = append(order, ev.ProcessID)
		}
		byProc[ev.ProcessID] = append(byProc[ev.ProcessID], ev)
	}
	sort.Strings(order)

	log := &Log{}
	for _, pid := range order {
		evs := byProc[pid]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
		open := map[string][]int{}
		var steps []Step
		for _, ev := range evs {
			switch ev.Type {
			case Start:
				open[ev.Activity] = append(open[ev.Activity], len(steps))
				steps = append(steps, Step{Activity: ev.Activity, Start: ev.Time})
			case End:
				q := open[ev.Activity]
				if len(q) == 0 {
					return nil, fmt.Errorf("wlog: execution %q: END of %q at %v without a START", pid, ev.Activity, ev.Time)
				}
				idx := q[0]
				open[ev.Activity] = q[1:]
				steps[idx].End = ev.Time
				steps[idx].Output = ev.Output.Clone()
			default:
				return nil, fmt.Errorf("wlog: execution %q: invalid event type %v", pid, ev.Type)
			}
		}
		for _, a := range sortedKeys(open) {
			if len(open[a]) > 0 {
				return nil, fmt.Errorf("wlog: execution %q: activity %q started but never ended", pid, a)
			}
		}
		sort.SliceStable(steps, func(i, j int) bool { return steps[i].Start.Before(steps[j].Start) })
		log.Executions = append(log.Executions, Execution{ID: pid, Steps: steps})
	}
	return log, nil
}

func oracleAssembleWith(events []Event, opts IngestOptions, rep *IngestReport) (*Log, error) {
	if !opts.lenient() {
		return oracleAssemble(events)
	}
	byProc := map[string][]Event{}
	var order []string
	for _, ev := range events {
		if _, seen := byProc[ev.ProcessID]; !seen {
			order = append(order, ev.ProcessID)
		}
		byProc[ev.ProcessID] = append(byProc[ev.ProcessID], ev)
	}
	sort.Strings(order)

	log := &Log{}
	for _, pid := range order {
		evs := byProc[pid]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
		open := map[string][]int{}
		var steps []Step
		bad := false
		for _, ev := range evs {
			switch ev.Type {
			case Start:
				open[ev.Activity] = append(open[ev.Activity], len(steps))
				steps = append(steps, Step{Activity: ev.Activity, Start: ev.Time})
			case End:
				q := open[ev.Activity]
				if len(q) == 0 {
					bad = true
					rep.record(IngestError{
						Class:     ClassStructure,
						Execution: pid,
						Err:       fmt.Errorf("%w: END of %q at %v", ErrEndWithoutStart, ev.Activity, ev.Time),
					})
					rep.RecordsSkipped++
					continue
				}
				idx := q[0]
				open[ev.Activity] = q[1:]
				steps[idx].End = ev.Time
				steps[idx].Output = ev.Output.Clone()
			default:
				bad = true
				rep.record(IngestError{Class: ClassSyntax, Execution: pid, Err: fmt.Errorf("invalid event type %v", ev.Type)})
				rep.RecordsSkipped++
			}
		}
		for _, a := range sortedKeys(open) {
			for range open[a] {
				bad = true
				rep.record(IngestError{
					Class:     ClassStructure,
					Execution: pid,
					Err:       fmt.Errorf("%w: activity %q", ErrUnterminatedStart, a),
				})
			}
		}
		if opts.MaxStepsPerExecution > 0 && len(steps) > opts.MaxStepsPerExecution {
			bad = true
			rep.record(IngestError{
				Class:     ClassLimit,
				Execution: pid,
				Err:       fmt.Errorf("%w: %d steps > %d", ErrExecutionTooLong, len(steps), opts.MaxStepsPerExecution),
			})
		}
		if bad && opts.Policy == Quarantine {
			rep.quarantine(pid)
			if rep.overBudget(opts) {
				return nil, errTooManyErrors(rep, opts)
			}
			continue
		}
		kept := steps[:0]
		for _, s := range steps {
			if s.End.IsZero() {
				rep.StepsDropped++
				continue
			}
			kept = append(kept, s)
		}
		if rep.overBudget(opts) {
			return nil, errTooManyErrors(rep, opts)
		}
		if len(kept) == 0 {
			continue
		}
		sort.SliceStable(kept, func(i, j int) bool { return kept[i].Start.Before(kept[j].Start) })
		log.Executions = append(log.Executions, Execution{ID: pid, Steps: kept})
	}
	return log, nil
}

// oracleStream is the original decoder of a codec.
type oracleStream func(io.Reader, IngestOptions, *IngestReport, func(Event) error) error

// oracleRead runs the original decode and assembly on one report.
func oracleRead(stream oracleStream, input string, opts IngestOptions) ([]Event, *Log, *IngestReport, error) {
	rep := NewIngestReport(opts)
	var events []Event
	err := stream(strings.NewReader(input), opts, rep, func(ev Event) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		return nil, nil, rep, err
	}
	l, err := oracleAssembleWith(events, opts, rep)
	return events, l, rep, err
}

// fuzzOptions derives the ingest options of one differential run from the
// fuzzed mode byte: bits 4-5 pick the policy, bit 0 sets an error budget,
// bit 1 a step watermark and bit 3 a one-sample report cap.
func fuzzOptions(mode uint8) IngestOptions {
	opts := IngestOptions{Policy: Policy((mode >> 4) % 3)}
	if mode&1 != 0 {
		opts.MaxErrors = 2
	}
	if mode&2 != 0 {
		opts.MaxStepsPerExecution = 3
	}
	if mode&8 != 0 {
		opts.MaxSampleErrors = 1
	}
	return opts
}

// diffReports describes the first difference between two reports'
// exported fields, or returns "".
func diffReports(got, want *IngestReport) string {
	type counts struct{ Read, Decoded, Skipped, Dropped, Quarantined int }
	g := counts{got.RecordsRead, got.EventsDecoded, got.RecordsSkipped, got.StepsDropped, got.ExecutionsQuarantined}
	w := counts{want.RecordsRead, want.EventsDecoded, want.RecordsSkipped, want.StepsDropped, want.ExecutionsQuarantined}
	switch {
	case g != w:
		return fmt.Sprintf("counts %+v, want %+v", g, w)
	case !reflect.DeepEqual(got.QuarantinedIDs, want.QuarantinedIDs):
		return fmt.Sprintf("quarantined %q, want %q", got.QuarantinedIDs, want.QuarantinedIDs)
	case !reflect.DeepEqual(got.Errors, want.Errors):
		return fmt.Sprintf("errors %v, want %v", got.Errors, want.Errors)
	case len(got.Samples) != len(want.Samples):
		return fmt.Sprintf("%d samples, want %d", len(got.Samples), len(want.Samples))
	}
	for i := range got.Samples {
		g, w := got.Samples[i], want.Samples[i]
		if g.Class != w.Class || g.Record != w.Record || g.Execution != w.Execution || g.Error() != w.Error() {
			return fmt.Sprintf("sample %d: %+v %q, want %+v %q", i, g, g.Error(), w, w.Error())
		}
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkColumnar asserts that a log's attached columnar view, if any, is
// the one BuildColumnar builds.
func checkColumnar(t *testing.T, l *Log) {
	t.Helper()
	if l.col == nil {
		if !l.HasRepeats() && len(l.Executions) > 0 {
			t.Fatal("acyclic log read without an attached columnar view")
		}
		return
	}
	if l.HasRepeats() {
		t.Fatal("columnar view attached to a log with repeated activities")
	}
	want := BuildColumnar(l)
	got := l.col
	sameSets := func(c *Columnar) [3][]int32 { ids, off := c.DistinctSets(); return [3][]int32{ids, off, c.ExecSet()} }
	gs, gns, ge, gne := got.StepTimes()
	ws, wns, we, wne := want.StepTimes()
	if !reflect.DeepEqual(got.Labels(), want.Labels()) || !reflect.DeepEqual(got.StepActs(), want.StepActs()) ||
		!reflect.DeepEqual(got.ExecBounds(), want.ExecBounds()) || !reflect.DeepEqual(sameSets(got), sameSets(want)) ||
		!reflect.DeepEqual([]any{gs, gns, ge, gne}, []any{ws, wns, we, wne}) {
		t.Fatalf("attached columnar view differs from BuildColumnar:\nlabels %q / %q\nacts %v / %v", got.Labels(), want.Labels(), got.StepActs(), want.StepActs())
	}
	if l.Columnar() != got {
		t.Fatal("Log.Columnar rebuilt a view that matches the steps")
	}
}

// differential compares every production reader of one codec with the
// oracle on one input.
func differential(t *testing.T, input string, mode uint8, stream oracleStream,
	readEvents func(io.Reader, IngestOptions, *IngestReport) ([]Event, *IngestReport, error),
	streamEvents func(io.Reader, IngestOptions, *IngestReport, func(Event) error) (*IngestReport, error),
	readLog func(io.Reader, IngestOptions, *IngestReport) (*Log, *IngestReport, error)) {
	t.Helper()
	opts := fuzzOptions(mode)
	wantEvents, wantLog, wantRep, wantErr := oracleRead(stream, input, opts)
	check := func(path string, l *Log, rep *IngestReport, err error) {
		t.Helper()
		if errText(err) != errText(wantErr) {
			t.Fatalf("%s %+v: error %q, want %q", path, opts, errText(err), errText(wantErr))
		}
		if d := diffReports(rep, wantRep); d != "" {
			t.Fatalf("%s %+v: report %s", path, opts, d)
		}
		if wantErr == nil {
			if !reflect.DeepEqual(l.Executions, wantLog.Executions) {
				t.Fatalf("%s %+v: executions\n%+v\nwant\n%+v", path, opts, l.Executions, wantLog.Executions)
			}
			checkColumnar(t, l)
		}
	}

	// The one-pass reader.
	l, rep, err := readLog(strings.NewReader(input), opts, nil)
	check("one-pass", l, rep, err)

	// The []Event reader, then AssembleWith on the same report.
	events, rep, err := readEvents(strings.NewReader(input), opts, nil)
	l = nil
	if err == nil {
		if !reflect.DeepEqual(events, wantEvents) {
			t.Fatalf("%+v: events\n%v\nwant\n%v", opts, events, wantEvents)
		}
		l, rep, err = AssembleWith(events, opts, rep)
	}
	check("[]Event", l, rep, err)

	// The streaming decoder on its own.
	var streamed, wantStreamed []Event
	rep, err = streamEvents(strings.NewReader(input), opts, nil, func(ev Event) error {
		streamed = append(streamed, ev)
		return nil
	})
	wantRep = NewIngestReport(opts)
	wantErr = stream(strings.NewReader(input), opts, wantRep, func(ev Event) error {
		wantStreamed = append(wantStreamed, ev)
		return nil
	})
	if errText(err) != errText(wantErr) || !reflect.DeepEqual(streamed, wantStreamed) {
		t.Fatalf("stream %+v: %v %q, want %v %q", opts, streamed, errText(err), wantStreamed, errText(wantErr))
	}
	if d := diffReports(rep, wantRep); d != "" {
		t.Fatalf("stream %+v: report %s", opts, d)
	}
}

// seedCorpus adds the committed inputs as seeds: the head of the
// repository's sample log (converted to the target codec; small seeds keep
// the fuzzer mutating instead of minimizing) and this package's fuzz
// corpora.
func seedCorpus(f *testing.F, csvCodec bool) (add func(input string, mode uint8)) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sample.csv"))
	if err != nil {
		f.Fatal(err)
	}
	events, err := ReadCSV(strings.NewReader(string(data)))
	if err != nil {
		f.Fatal(err)
	}
	var b strings.Builder
	write := WriteText
	if csvCodec {
		write = WriteCSV
	}
	if err := write(&b, events[:min(len(events), 6)]); err != nil {
		f.Fatal(err)
	}
	add = func(input string, mode uint8) {
		for _, policy := range []uint8{0x00, 0x10, 0x20} {
			f.Add(input, mode|policy)
		}
	}
	add(b.String(), 0)
	add(b.String(), 3)
	files, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			arg, ok := strings.CutPrefix(line, "string(")
			if !ok {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
			if err != nil {
				continue
			}
			if csvCodec {
				add(s, 4)
			} else {
				add(s, 0)
			}
		}
	}
	return add
}

// FuzzReadLogText checks the single-pass text reader, ReadTextWith +
// AssembleWith and StreamTextWith against the oracle under every policy:
// identical executions, reports, error text and attached columnar view.
func FuzzReadLogText(f *testing.F) {
	seedCorpus(f, false)
	f.Add("p A START 1\np A END 2 5 6\nq B START 1\nq B END 3\n", uint8(0))
	f.Add("p A START 3\np A START 1\np A END 4\np A END 2\n", uint8(2))
	f.Add("p C START 1\np B START 2\np A START 3\np A END 4\n", uint8(0))
	f.Add("p A END 1\np B START x\nq A START 2\n\tq  A\vEND 3 -1\n# c\n", uint8(1))
	f.Add("p a b START 1\np a b END 2\n # c\n", uint8(0))
	f.Add("p A START -1000000001\np A END -5 +7\np B START 9 x\n", uint8(9))
	f.Fuzz(func(t *testing.T, input string, mode uint8) {
		differential(t, input, mode, oracleStreamText, ReadTextWith, StreamTextWith, ReadTextLogWith)
	})
}

// FuzzReadLogCSV is FuzzReadLogText for the CSV codec; mode bit 4 prepends
// the header so the fuzzer spends its time on the rows.
func FuzzReadLogCSV(f *testing.F) {
	add := seedCorpus(f, true)
	add("p,A,START,1,\np,A,END,2,5;6\nq,B,START,1,\nq,B,END,3,\n", 4)
	add("p,A,END,1,\np,B,START,x,\np,C,START,2,1;;2\np,C,START,2\n", 5)
	add("p,A,START,3,\np,A,START,1,\np,A,END,4,\np,A,END,2,\np,B,START,5,\n", 6)
	add("process,activity,type,time_unix_nanos,output\n\"p q\",\"a,b\",START,1,\n\"p q\",\"a,b\",END,2,7\n", 0)
	f.Fuzz(func(t *testing.T, input string, mode uint8) {
		if mode&4 != 0 {
			input = strings.Join(csvHeader(), ",") + "\n" + input
		}
		differential(t, input, mode, oracleStreamCSV, ReadCSVWith, StreamCSVWith, ReadCSVLogWith)
	})
}
