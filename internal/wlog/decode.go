package wlog

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// Single-pass decoding. The text and CSV decoders tokenize each record into
// a pointer-free rawEvent: process and activity names are interned to dense
// int32 IDs as they are read (a map lookup on the raw bytes allocates
// nothing; only a name's first sighting does), and output vectors are
// appended to one shared []int arena addressed by offset. The batch readers
// hand the whole record slice to the assembler (assemble.go); the streaming
// readers turn each record back into an Event as soon as it is decoded.

// rawEvent is one decoded record (P, A, E, T, O) in compact form. It holds
// no pointers, so a slice of them costs the garbage collector nothing to
// scan.
type rawEvent struct {
	// sec and nsec are the event time as Unix seconds and nanoseconds in
	// [0, 1e9), the wall-clock pair time.Time.Before compares.
	sec  int64
	nsec int32
	// proc and act index the decoder's process and activity name tables.
	proc, act int32
	// outOff and outLen address the output vector in the decoder's arena;
	// outLen < 0 marks a nil vector.
	outOff, outLen int32
	kind           eventKind
}

// eventKind is the event type in one byte; Start and End keep their
// EventType values. kindOther only arises from caller events with an
// out-of-range EventType, which the assembler reports.
type eventKind uint8

const (
	kindStart = eventKind(Start)
	kindEnd   = eventKind(End)
	kindOther = kindEnd + 1
)

func kindOf(t EventType) eventKind {
	if t == Start || t == End {
		return eventKind(t)
	}
	return kindOther
}

// setNanos stores a Unix-nanosecond timestamp, normalized as time.Unix does.
func (e *rawEvent) setNanos(ns int64) {
	sec, nsec := ns/1e9, ns%1e9
	if nsec < 0 {
		nsec += 1e9
		sec--
	}
	e.sec, e.nsec = sec, int32(nsec)
}

// time returns the event time in UTC, as every decoder produces it.
func (e *rawEvent) time() time.Time { return time.Unix(e.sec, int64(e.nsec)).UTC() }

// names interns names to dense IDs in first-seen order.
type names struct {
	ids  map[string]int32
	list []string
}

// bytesID interns b. The lookup converts without allocating; only a name's
// first sighting copies it.
func (n *names) bytesID(b []byte) int32 {
	if id, ok := n.ids[string(b)]; ok {
		return id
	}
	return n.add(string(b))
}

// stringID interns s. With clone set, a new name is copied first so the
// table does not pin a larger string that s may be a slice of.
func (n *names) stringID(s string, clone bool) int32 {
	if id, ok := n.ids[s]; ok {
		return id
	}
	if clone {
		s = strings.Clone(s)
	}
	return n.add(s)
}

func (n *names) add(s string) int32 {
	if n.ids == nil {
		n.ids = map[string]int32{}
	}
	id := int32(len(n.list))
	n.ids[s] = id
	n.list = append(n.list, s)
	return id
}

// decoder holds the interned name tables and output arena shared by the
// records it decodes.
type decoder struct {
	procs, acts names
	outs        []int
	fields      [][]byte // scratch for splitting text lines
}

// output returns the record's output vector as a capacity-clipped slice of
// the arena, so appending to it can never clobber a neighbour.
func (d *decoder) output(e *rawEvent) Output {
	switch {
	case e.outLen < 0:
		return nil
	case e.outLen == 0:
		return Output{}
	}
	end := e.outOff + e.outLen
	return d.outs[e.outOff:end:end]
}

// event converts a record back into an Event.
func (d *decoder) event(e *rawEvent) Event {
	return Event{
		ProcessID: d.procs.list[e.proc],
		Activity:  d.acts.list[e.act],
		Type:      EventType(e.kind),
		Time:      e.time(),
		Output:    d.output(e),
	}
}

// events converts decoded records into Events whose outputs share the
// arena; no records gives a nil slice.
func (d *decoder) events(evs []rawEvent) []Event {
	if len(evs) == 0 {
		return nil
	}
	out := make([]Event, len(evs))
	for i := range evs {
		out[i] = d.event(&evs[i])
	}
	return out
}

// streamNameCap bounds the name tables of a streaming decode, which may
// run over an endless trail: past it the tables start afresh.
const streamNameCap = 1 << 14

// stream decodes records one at a time into Events for fn, reusing the
// arena and bounding the name tables.
func (d *decoder) stream(fn func(Event) error) func(rawEvent) error {
	return func(e rawEvent) error {
		ev := d.event(&e)
		ev.Output = ev.Output.Clone()
		d.outs = d.outs[:0]
		if len(d.procs.list) > streamNameCap || len(d.acts.list) > streamNameCap {
			d.procs, d.acts = names{}, names{}
		}
		return fn(ev)
	}
}

// asciiSpace has bit c set for each byte c that strings.Fields splits on in
// ASCII input.
const asciiSpace = 1<<'\t' | 1<<'\n' | 1<<'\v' | 1<<'\f' | 1<<'\r' | 1<<' '

// split divides a text line into fields exactly as strings.Fields does.
// Pure-ASCII lines are split in place; a line with any byte ≥ 0x80 takes
// the Unicode-aware strings.Fields, so the other Unicode spaces split too.
// The fields alias line or the scratch buffer.
func (d *decoder) split(line []byte) [][]byte {
	f := d.fields[:0]
	start := -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			f = f[:0]
			for _, s := range strings.Fields(string(line)) {
				f = append(f, []byte(s))
			}
			d.fields = f
			return f
		case c < 64 && asciiSpace>>c&1 != 0:
			if start >= 0 {
				f = append(f, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		f = append(f, line[start:])
	}
	d.fields = f
	return f
}

// hasSpace reports whether a name contains anything split divides on.
func hasSpace(s string) bool { return strings.ContainsFunc(s, unicode.IsSpace) }

// textLine decodes one non-blank, non-comment line of fields:
//
//	<process> <activity> START|END <unix-nanos> [<out0> <out1> ...]
func (d *decoder) textLine(f [][]byte) (rawEvent, error) {
	if len(f) < 4 {
		return rawEvent{}, fmt.Errorf("need at least 4 fields, got %d", len(f))
	}
	var e rawEvent
	switch string(f[2]) {
	case "START":
		e.kind = kindStart
	case "END":
		e.kind = kindEnd
	default:
		_, err := ParseEventType(string(f[2]))
		return rawEvent{}, err
	}
	ns, err := strconv.ParseInt(string(f[3]), 10, 64)
	if err != nil {
		return rawEvent{}, fmt.Errorf("bad timestamp %q: %w", f[3], err)
	}
	e.setNanos(ns)
	e.outOff, e.outLen = int32(len(d.outs)), -1
	for _, b := range f[4:] {
		v, err := strconv.Atoi(string(b))
		if err != nil {
			d.outs = d.outs[:e.outOff]
			return rawEvent{}, fmt.Errorf("bad output value %q: %w", b, err)
		}
		d.outs = append(d.outs, v)
	}
	if n := int32(len(d.outs)) - e.outOff; n > 0 {
		e.outLen = n
	}
	e.proc = d.procs.bytesID(f[0])
	e.act = d.acts.bytesID(f[1])
	return e, nil
}

// text decodes the text codec under a recovery policy, passing each record
// to sink. Blank lines and lines whose first non-space character is '#' are
// skipped; rep counts the rest.
func (d *decoder) text(r io.Reader, opts IngestOptions, rep *IngestReport, sink func(rawEvent) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		f := d.split(sc.Bytes())
		if len(f) == 0 || f[0][0] == '#' {
			continue
		}
		rep.RecordsRead++
		e, err := d.textLine(f)
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
		if err := sink(e); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("wlog: scanning: %w", err)
	}
	return nil
}

// csvRecord decodes one data row of the CSV codec.
func (d *decoder) csvRecord(rec []string) (rawEvent, error) {
	typ, err := ParseEventType(rec[2])
	if err != nil {
		return rawEvent{}, err
	}
	ns, err := strconv.ParseInt(rec[3], 10, 64)
	if err != nil {
		return rawEvent{}, fmt.Errorf("wlog: bad CSV timestamp %q: %w", rec[3], err)
	}
	e := rawEvent{kind: kindOf(typ), outOff: int32(len(d.outs)), outLen: -1}
	e.setNanos(ns)
	if rest := rec[4]; rest != "" {
		for {
			f, tail, more := strings.Cut(rest, ";")
			v, err := strconv.Atoi(f)
			if err != nil {
				d.outs = d.outs[:e.outOff]
				return rawEvent{}, fmt.Errorf("wlog: bad CSV output value %q: %w", f, err)
			}
			d.outs = append(d.outs, v)
			if !more {
				break
			}
			rest = tail
		}
		e.outLen = int32(len(d.outs)) - e.outOff
	}
	e.proc = d.procs.stringID(rec[0], true)
	e.act = d.acts.stringID(rec[1], true)
	return e, nil
}

// csv decodes the CSV codec (header row required) under a recovery policy,
// passing each record to sink. Errors carry the 1-based data record number.
// A malformed header is always fatal.
func (d *decoder) csv(r io.Reader, opts IngestOptions, rep *IngestReport, sink func(rawEvent) error) error {
	want := csvHeader()
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(want)
	cr.ReuseRecord = true
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
		rep.RecordsRead++
		var e rawEvent
		if err == nil {
			e, err = d.csvRecord(rec)
		}
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
		if err := sink(e); err != nil {
			return err
		}
	}
}
