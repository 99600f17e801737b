package trace

// This file is the event codec: an Event's canonical JSONL line, written
// and read by hand with jsonx. The writer produces exactly the bytes
// json.Marshal gives eventJSON: field order, omitted zero values,
// hex-float strings and string escapes, HTML escapes included. The
// reader parses a line of that canonical shape directly and hands any
// other line to encoding/json, so it accepts, decodes and rejects as
// encoding/json does. The fleet writes and reads the events of a trace
// span inside its messages with the same two functions.

import (
	"math"
	"strconv"

	"funcytuner/internal/jsonx"
)

// AppendEvent appends e's canonical encoding to dst: the bytes
// json.Marshal gives e.
func AppendEvent(dst []byte, e *Event) []byte {
	dst = jsonx.AppendString(append(dst, `{"kind":`...), string(e.Kind))
	dst = jsonx.OmitInt(dst, `,"pseq":`, int64(e.PhaseSeq))
	dst = jsonx.OmitString(dst, `,"phase":`, e.Phase)
	dst = strconv.AppendInt(append(dst, `,"sample":`...), int64(e.Sample), 10)
	dst = jsonx.OmitInt(dst, `,"step":`, int64(e.Step))
	dst = jsonx.OmitString(dst, `,"name":`, e.Name)
	dst = jsonx.OmitInt(dst, `,"modules":`, int64(e.Modules))
	dst = jsonx.OmitInt(dst, `,"attempt":`, int64(e.Attempt))
	dst = appendFloat(dst, `,"seconds":"`, e.Seconds)
	dst = appendFloat(dst, `,"sim":"`, e.Sim)
	dst = jsonx.OmitInt(dst, `,"wall":`, e.Wall)
	if e.Sched {
		dst = append(dst, `,"sched":true`...)
	}
	return append(dst, '}')
}

// appendFloat writes v as a lossless hex-float string, omitted when
// zero: -0 collapses to 0, so the encoding is a pure function with a
// stable fixed point (ParseFloat("") cannot return -0).
func appendFloat(dst []byte, key string, v float64) []byte {
	if v == 0 {
		return dst
	}
	return append(strconv.AppendFloat(append(dst, key...), v, 'x', -1, 64), '"')
}

// decode decodes and validates one event line. names, when not nil,
// shares the kind, phase and name strings across one trace's lines.
func (e *Event) decode(data []byte, names map[string]string) error {
	if d, ok := parseEvent(data, names); ok {
		*e = d
		return nil
	}
	return e.decodeJSON(data)
}

// parseEvent parses a line that holds one event of ParseEvent's shape.
func parseEvent(data []byte, names map[string]string) (Event, bool) {
	p := jsonx.NewParser(data, names)
	e := ParseEvent(&p)
	return e, p.End()
}

// ParseEvent reads an event of the shape AppendEvent writes at p's
// position: eventJSON's fields in order, none twice and no other, no
// whitespace, strings of printable ASCII without escapes, integers
// without sign, fraction, exponent or leading zero (sample may be -1).
// It fails p on any other event and on one decodeJSON rejects. Within
// that shape, encoding/json decodes every value to what ParseEvent does.
func ParseEvent(p *jsonx.Parser) Event {
	e := Event{Kind: Kind(p.Str(`{"kind":`))}
	e.PhaseSeq = int(p.Uint(`,"pseq":`, math.MaxInt))
	e.Phase = p.Str(`,"phase":`)
	if p.Lit(`,"sample":-1`) {
		e.Sample = -1
	} else {
		e.Sample = int(p.Uint(`,"sample":`, math.MaxInt))
	}
	e.Step = int(p.Uint(`,"step":`, math.MaxInt))
	e.Name = p.Str(`,"name":`)
	e.Modules = int(p.Uint(`,"modules":`, math.MaxInt))
	e.Attempt = int(p.Uint(`,"attempt":`, math.MaxInt))
	e.Seconds = parseFloat(p, `,"seconds":`)
	e.Sim = parseFloat(p, `,"sim":`)
	e.Wall = int64(p.Uint(`,"wall":`, math.MaxInt64))
	e.Sched = p.Lit(`,"sched":true`)
	if e.Kind == "" || !p.Lit("}") {
		p.Fail()
	}
	return e
}

// parseFloat reads the hex-float string value of key.
func parseFloat(p *jsonx.Parser, key string) float64 {
	v, err := parseSeconds(string(p.Raw(key)))
	if err != nil {
		p.Fail()
	}
	return v
}
