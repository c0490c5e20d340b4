package wlog

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The text codec writes one event per line:
//
//	<process> <activity> START|END <unix-nanos> [<out0> <out1> ...]
//
// Fields are separated by whitespace as strings.Fields defines it (ASCII
// and Unicode spaces alike), and a line whose first field starts with '#' is
// a comment. Names therefore must be non-empty and contain no whitespace,
// and process names must not start with '#' (use the CSV or JSON codec for
// such names).

// WriteText writes events in the text-log format. It rejects exactly the
// names the reader would split or skip, so whatever it writes reads back.
func WriteText(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		if hasSpace(ev.ProcessID) || hasSpace(ev.Activity) {
			return fmt.Errorf("wlog: text codec cannot encode name with whitespace: %q/%q", ev.ProcessID, ev.Activity)
		}
		if ev.ProcessID == "" || ev.Activity == "" || ev.ProcessID[0] == '#' {
			return fmt.Errorf("wlog: text codec cannot encode empty or comment-like name: %q/%q", ev.ProcessID, ev.Activity)
		}
		if _, err := bw.WriteString(ev.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text-log format. Blank lines and lines starting with
// '#' are skipped. For very large trails prefer StreamText, which does not
// materialize the slice.
func ReadText(r io.Reader) ([]Event, error) {
	events, _, err := ReadTextWith(r, IngestOptions{}, nil)
	return events, err
}

// ReadTextWith parses the text-log format under a recovery policy:
// unparseable lines are counted in the report and skipped instead of
// aborting the read (FailFast behaves exactly like ReadText).
func ReadTextWith(r io.Reader, opts IngestOptions, rep *IngestReport) ([]Event, *IngestReport, error) {
	rep = ensureReport(rep, opts)
	d, evs, err := decodeAll((*decoder).text, r, opts, rep)
	if err != nil {
		return nil, rep, err
	}
	return d.events(evs), rep, nil
}

// csvHeader is the fixed column set of the CSV codec.
func csvHeader() []string {
	return []string{"process", "activity", "type", "time_unix_nanos", "output"}
}

// WriteCSV writes events as CSV with a header row. The output vector is
// encoded as semicolon-joined integers in the final column.
func WriteCSV(w io.Writer, events []Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader()); err != nil {
		return err
	}
	for _, ev := range events {
		out := make([]string, len(ev.Output))
		for i, v := range ev.Output {
			out[i] = strconv.Itoa(v)
		}
		rec := []string{
			ev.ProcessID,
			ev.Activity,
			ev.Type.String(),
			strconv.FormatInt(ev.Time.UnixNano(), 10),
			strings.Join(out, ";"),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the CSV codec's output (header row required). Errors carry
// the 1-based data record number.
func ReadCSV(r io.Reader) ([]Event, error) {
	events, _, err := ReadCSVWith(r, IngestOptions{}, nil)
	return events, err
}

// ReadCSVWith parses the CSV codec under a recovery policy: bad rows are
// counted in the report and skipped instead of aborting the read. A
// malformed header is always fatal.
func ReadCSVWith(r io.Reader, opts IngestOptions, rep *IngestReport) ([]Event, *IngestReport, error) {
	rep = ensureReport(rep, opts)
	d, evs, err := decodeAll((*decoder).csv, r, opts, rep)
	if err != nil {
		return nil, rep, err
	}
	return d.events(evs), rep, nil
}

// jsonEvent is the wire form of an event for the JSON codec.
type jsonEvent struct {
	Process  string `json:"process"`
	Activity string `json:"activity"`
	Type     string `json:"type"`
	TimeNS   int64  `json:"time_unix_nanos"`
	Output   []int  `json:"output,omitempty"`
}

// WriteJSON writes events as a JSON array.
func WriteJSON(w io.Writer, events []Event) error {
	arr := make([]jsonEvent, len(events))
	for i, ev := range events {
		arr[i] = jsonEvent{
			Process:  ev.ProcessID,
			Activity: ev.Activity,
			Type:     ev.Type.String(),
			TimeNS:   ev.Time.UnixNano(),
			Output:   ev.Output,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(arr)
}

// ReadJSON parses the JSON codec's output. Per-record errors carry the
// 1-based array index of the bad record.
func ReadJSON(r io.Reader) ([]Event, error) {
	events, _, err := ReadJSONWith(r, IngestOptions{}, nil)
	return events, err
}

// ReadJSONWith parses the JSON codec under a recovery policy: records with
// an invalid event type are counted in the report and skipped. A document
// that does not parse as a JSON array at all is always fatal — there is no
// record boundary to resynchronize on.
func ReadJSONWith(r io.Reader, opts IngestOptions, rep *IngestReport) ([]Event, *IngestReport, error) {
	rep = ensureReport(rep, opts)
	var arr []jsonEvent
	if err := json.NewDecoder(r).Decode(&arr); err != nil {
		return nil, rep, fmt.Errorf("wlog: decoding JSON: %w", err)
	}
	events := make([]Event, 0, len(arr))
	for i, je := range arr {
		rep.RecordsRead++
		typ, err := ParseEventType(je.Type)
		if err != nil {
			if !opts.lenient() {
				return nil, rep, fmt.Errorf("wlog: JSON record %d: %w", i+1, err)
			}
			if err := handleBadRecord(opts, rep, IngestError{Class: ClassSyntax, Record: i + 1, Err: err}); err != nil {
				return nil, rep, err
			}
			continue
		}
		rep.EventsDecoded++
		events = append(events, Event{
			ProcessID: je.Process,
			Activity:  je.Activity,
			Type:      typ,
			Time:      time.Unix(0, je.TimeNS).UTC(),
			Output:    je.Output,
		})
	}
	return events, rep, nil
}
