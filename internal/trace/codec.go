package trace

// This file is the event codec: an Event's canonical JSONL line, written
// and read by hand. The writer produces exactly the bytes json.Marshal
// gives eventJSON: field order, omitted zero values, hex-float strings
// and string escapes, HTML escapes included. The reader parses a line of
// that canonical shape directly and hands any other line to
// encoding/json, so it accepts, decodes and rejects as encoding/json
// does. Only strings that need escaping still go through encoding/json.

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// appendEvent appends e's canonical encoding to dst.
func appendEvent(dst []byte, e *Event) []byte {
	dst = appendString(append(dst, `{"kind":`...), string(e.Kind))
	dst = appendInt(dst, `,"pseq":`, int64(e.PhaseSeq))
	if e.Phase != "" {
		dst = appendString(append(dst, `,"phase":`...), e.Phase)
	}
	dst = strconv.AppendInt(append(dst, `,"sample":`...), int64(e.Sample), 10)
	dst = appendInt(dst, `,"step":`, int64(e.Step))
	if e.Name != "" {
		dst = appendString(append(dst, `,"name":`...), e.Name)
	}
	dst = appendInt(dst, `,"modules":`, int64(e.Modules))
	dst = appendInt(dst, `,"attempt":`, int64(e.Attempt))
	dst = appendFloat(dst, `,"seconds":"`, e.Seconds)
	dst = appendFloat(dst, `,"sim":"`, e.Sim)
	dst = appendInt(dst, `,"wall":`, e.Wall)
	if e.Sched {
		dst = append(dst, `,"sched":true`...)
	}
	return append(dst, '}')
}

func appendInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
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

// appendString quotes s as json.Marshal does. A string of printable
// ASCII other than `"`, `\`, `<`, `>` and `&` is quoted as it is, which
// covers every kind, phase and outcome name the pipeline records. Any
// other string goes through json.Marshal itself, so control bytes,
// HTML characters, U+2028, U+2029 and invalid UTF-8 escape exactly as
// they always did.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
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

// parseEvent parses a line of the shape appendEvent writes: eventJSON's
// fields in order, none twice and no other, no whitespace, strings of
// printable ASCII without escapes, integers without sign, fraction,
// exponent or leading zero (sample may be -1). It reports false for any
// other line and for one decodeJSON rejects. Within that shape,
// encoding/json decodes every value to what parseEvent does.
func parseEvent(data []byte, names map[string]string) (Event, bool) {
	p := lineParser{b: data, names: names}
	e := Event{Kind: Kind(p.str(`{"kind":"`))}
	e.PhaseSeq = int(p.num(`,"pseq":`, math.MaxInt))
	e.Phase = p.str(`,"phase":"`)
	if p.lit(`,"sample":-1`) {
		e.Sample = -1
	} else {
		e.Sample = int(p.num(`,"sample":`, math.MaxInt))
	}
	e.Step = int(p.num(`,"step":`, math.MaxInt))
	e.Name = p.str(`,"name":"`)
	e.Modules = int(p.num(`,"modules":`, math.MaxInt))
	e.Attempt = int(p.num(`,"attempt":`, math.MaxInt))
	e.Seconds = p.float(`,"seconds":"`)
	e.Sim = p.float(`,"sim":"`)
	e.Wall = int64(p.num(`,"wall":`, math.MaxInt64))
	e.Sched = p.lit(`,"sched":true`)
	return e, !p.bad && e.Kind != "" && p.lit("}") && p.i == len(data)
}

// lineParser reads one line for parseEvent. A field whose key does not
// come next reads as zero, as an absent field does; any content left
// unread fails the final check. A value outside the canonical shape
// sets bad, after which nothing matches.
type lineParser struct {
	b     []byte
	i     int
	bad   bool
	names map[string]string
}

// lit consumes s if the line continues with it.
func (p *lineParser) lit(s string) bool {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// raw consumes the string value of key, which ends in the opening
// quote: printable ASCII other than `"` and `\` up to the closing one.
func (p *lineParser) raw(key string) []byte {
	if !p.lit(key) {
		return nil
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		if c := p.b[p.i]; c == '"' {
			p.i++
			return p.b[start : p.i-1]
		} else if c < ' ' || c == '\\' || c >= utf8.RuneSelf {
			break
		}
	}
	p.bad = true
	return nil
}

func (p *lineParser) str(key string) string {
	b := p.raw(key)
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if p.names != nil {
		p.names[s] = s
	}
	return s
}

func (p *lineParser) float(key string) float64 {
	v, err := parseSeconds(string(p.raw(key)))
	if err != nil {
		p.bad = true
	}
	return v
}

// num consumes the integer value of key, which must be at most max.
func (p *lineParser) num(key string, max uint64) uint64 {
	if !p.lit(key) {
		return 0
	}
	start, n := p.i, uint64(0)
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		n = n*10 + uint64(p.b[p.i]-'0')
	}
	if d := p.i - start; d == 0 || d > 19 || d > 1 && p.b[start] == '0' || n > max {
		p.bad = true
	}
	return n
}
