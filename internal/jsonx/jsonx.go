// Package jsonx writes and reads JSON documents of a fixed shape by
// hand, byte for byte as encoding/json writes them, for the formats the
// tuner exchanges at volume: trace events, the fleet's batch messages
// and its journal records.
//
// The writers produce exactly json.Marshal's bytes for the values they
// are given: string escapes, HTML escapes included, and number formats.
// The Parser reads only the canonical shape a writer produces: the
// fields in order, each at most once, no whitespace and strings without
// escapes. Anything else makes it decline, and its caller hands the
// input to encoding/json, so accepted inputs, decoded values and error
// texts are encoding/json's.
package jsonx

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendString quotes s as json.Marshal does. A string of printable
// ASCII other than `"`, `\`, `<`, `>` and `&` is quoted as it is, which
// covers every name, identifier and hex float the tuner writes. Any
// other string goes through json.Marshal itself, so control bytes, HTML
// characters, U+2028, U+2029 and invalid UTF-8 escape exactly as
// encoding/json escapes them.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// AppendFloat writes a finite v as encoding/json writes a float64: the
// shortest decimal that reads back as v, in exponent form below 1e-6
// and from 1e21, with the exponent unpadded.
func AppendFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 becomes e-7
		dst = dst[:n-1]
	}
	return dst
}

// OmitInt appends key and v unless v is zero: an omitempty integer
// field. key holds the field's separator, name and colon.
func OmitInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// OmitString appends key and s unless s is empty: an omitempty string
// field.
func OmitString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return AppendString(append(dst, key...), s)
}

// Parser reads a document of a canonical shape, field by field in the
// order its writer writes them. Each read names the field's key, with
// the separator and punctuation before it, up to the colon. A field
// whose key does not come next reads as zero, as an absent field
// decodes, and consumes nothing, so a field present out of order or
// twice, or an unknown one, is left unread and fails the caller's final
// check. An empty key reads the value that comes next, which must be
// there. A value outside the canonical shape fails the parser, after
// which nothing matches.
//
// The reads know nothing of objects: a caller reads an object's first
// field as a required one, its key opening with the brace, since a
// later field's key, which opens with a comma, may not follow the brace.
type Parser struct {
	b     []byte
	i     int
	bad   bool
	names map[string]string
}

// NewParser reads b. names, when not nil, shares the strings Str reads
// across the document.
func NewParser(b []byte, names map[string]string) Parser {
	return Parser{b: b, names: names}
}

// OK reports whether every value read so far had the canonical shape.
func (p *Parser) OK() bool { return !p.bad }

// End reports whether every value had the canonical shape and the
// document is read to its end.
func (p *Parser) End() bool { return !p.bad && p.i == len(p.b) }

// Fail marks the document as outside the canonical shape.
func (p *Parser) Fail() { p.bad = true }

// Lit consumes s if the document continues with it.
func (p *Parser) Lit(s string) bool {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// Raw consumes the string value of key: printable ASCII other than `"`
// and `\` between quotes. The bytes alias the document.
func (p *Parser) Raw(key string) []byte {
	if !p.Lit(key) {
		return nil
	}
	if !p.Lit(`"`) {
		p.bad = true
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

// Str consumes the string value of key as Raw does, shared through the
// parser's names.
func (p *Parser) Str(key string) string {
	b := p.Raw(key)
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if p.names != nil {
		p.names[s] = s
	}
	return s
}

// Uint consumes the unsigned integer value of key, which must be at
// most max: digits without sign, fraction, exponent or leading zero.
func (p *Parser) Uint(key string, max uint64) uint64 {
	if !p.Lit(key) {
		return 0
	}
	return p.digits(max)
}

// Int consumes the integer value of key, which must lie in [min, max]:
// Uint's digits, optionally after a minus sign.
func (p *Parser) Int(key string, min, max int64) int64 {
	if !p.Lit(key) {
		return 0
	}
	if p.Lit("-") {
		return -int64(p.digits(uint64(-(min + 1)) + 1))
	}
	return int64(p.digits(uint64(max)))
}

func (p *Parser) digits(max uint64) uint64 {
	start, n := p.i, uint64(0)
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		n = n*10 + uint64(p.b[p.i]-'0')
	}
	if d := p.i - start; d == 0 || d > 19 || d > 1 && p.b[start] == '0' || n > max {
		p.bad = true
	}
	return n
}

// Float consumes the number value of key as encoding/json reads it into
// a float64: a JSON number that strconv.ParseFloat reads without error.
func (p *Parser) Float(key string) float64 {
	if !p.Lit(key) {
		return 0
	}
	start := p.i
	p.Lit("-")
	if !p.Lit("0") && p.run() == 0 {
		p.bad = true
	}
	if p.Lit(".") && p.run() == 0 {
		p.bad = true
	}
	if p.Lit("e") || p.Lit("E") {
		if !p.Lit("+") {
			p.Lit("-")
		}
		if p.run() == 0 {
			p.bad = true
		}
	}
	if p.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	if err != nil {
		p.bad = true
	}
	return v
}

// run consumes a run of digits and returns its length.
func (p *Parser) run() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}
