package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"unsafe"
)

// refMarshal is the reference writer: encoding/json over the eventJSON
// wire form, whose bytes AppendEvent must reproduce exactly.
func refMarshal(e Event) ([]byte, error) {
	return json.Marshal(eventJSON{
		Kind:    string(e.Kind),
		Pseq:    e.PhaseSeq,
		Phase:   e.Phase,
		Sample:  e.Sample,
		Step:    e.Step,
		Name:    e.Name,
		Modules: e.Modules,
		Attempt: e.Attempt,
		Seconds: refFloat(e.Seconds),
		Sim:     refFloat(e.Sim),
		Wall:    e.Wall,
		Sched:   e.Sched,
	})
}

// refFloat renders a float as a lossless hex-float string, with "" for
// zero (and -0) so unset durations stay off the wire.
func refFloat(v float64) string {
	if v == 0 {
		return ""
	}
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// The paper-scale tests run a core session, so they live in package
// trace_test, which reaches the references through these.
var (
	RefMarshal = refMarshal
	RefDecode  = func(line []byte) (Event, error) {
		var e Event
		err := e.decodeJSON(line)
		return e, err
	}
)

// sameEvent reports whether a and b are equal, floats compared by their
// bits so NaN equals NaN.
func sameEvent(a, b Event) bool {
	bits := func(e Event) (Event, uint64, uint64) {
		s, m := math.Float64bits(e.Seconds), math.Float64bits(e.Sim)
		e.Seconds, e.Sim = 0, 0
		return e, s, m
	}
	ea, sa, ma := bits(a)
	eb, sb, mb := bits(b)
	return ea == eb && sa == sb && ma == mb
}

// checkDecode fails unless the codec decides line as the encoding/json
// reference does: the same acceptance, error text and event, with and
// without shared strings.
func checkDecode(t *testing.T, line []byte) (Event, bool) {
	t.Helper()
	want, wantErr := RefDecode(line)
	for _, names := range []map[string]string{nil, {}} {
		var got Event
		err := got.decode(line, names)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%q: codec error %v, encoding/json error %v", line, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("%q: codec error %q, encoding/json error %q", line, err, wantErr)
		case err == nil && !sameEvent(got, want):
			t.Fatalf("%q: codec decoded %+v, encoding/json %+v", line, got, want)
		}
	}
	return want, wantErr == nil
}

// checkEncode fails unless the codec writes e as the reference does.
func checkEncode(t *testing.T, e Event) []byte {
	t.Helper()
	want, err := refMarshal(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v: codec wrote\n%s\nencoding/json\n%s", e, got, want)
	}
	return got
}

// Every class of string escape encoding/json applies, and the bytes it
// leaves alone, encode to the reference's bytes and decode as the
// reference decodes them.
func TestEventCodecEscapes(t *testing.T) {
	cases := map[string]string{
		"plain":            "cfr-adaptive",
		"quote":            `say "ok"`,
		"backslash":        `C:\trace\x`,
		"backspace":        "a\bb",
		"form feed":        "a\fb",
		"newline":          "a\nb",
		"carriage return":  "a\rb",
		"tab":              "a\tb",
		"nul":              "a\x00b",
		"unit separator":   "a\x1fb",
		"delete":           "a\x7fb",
		"less than":        "a<b",
		"greater than":     "a>b",
		"ampersand":        "a&b",
		"html":             "<a href='x'>&amp;</a>",
		"line separator":   "a\u2028b",
		"para separator":   "a\u2029b",
		"invalid byte":     "a\xffb",
		"truncated rune":   "a\xe2\x80",
		"surrogate half":   "\xed\xa0\x80",
		"non-ascii":        "naïve Größe 日本 🙂",
		"empty":            "",
		"escapes adjacent": "\"\\\n<\u2028\xff",
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			e := Event{Kind: Kind("k" + s), Phase: s, Sample: 3, Name: s, Seconds: 1.5}
			line := checkEncode(t, e)
			got, ok := checkDecode(t, line)
			if !ok {
				t.Fatalf("%q: rejected its own encoding", line)
			}
			if want := string(bytes.ToValidUTF8([]byte(s), nil)); s == want && got.Name != s {
				t.Fatalf("%q decoded to name %q", s, got.Name)
			}
		})
	}
}

// A line in the canonical shape is parsed directly, and its strings are
// shared across a trace; a line outside it still decodes, through
// encoding/json.
func TestEventCodecFastPath(t *testing.T) {
	names := map[string]string{}
	var kinds []string
	for _, e := range append(sampleEvents(), sampleEvents()...) {
		line, _ := e.MarshalJSON()
		if got, ok := parseEvent(line, nil); !ok || !sameEvent(got, e) {
			t.Fatalf("canonical line %s parsed directly to %+v (%v), want %+v", line, got, ok, e)
		}
		got, ok := parseEvent(line, names)
		if !ok || !sameEvent(got, e) {
			t.Fatalf("canonical line %s parsed directly to %+v (%v), want %+v", line, got, ok, e)
		}
		kinds = append(kinds, string(got.Kind))
	}
	if n := len(sampleEvents()); unsafe.StringData(kinds[0]) != unsafe.StringData(kinds[n]) {
		t.Error("a trace's repeated kind strings are not shared")
	}
	for _, line := range []string{
		`{"kind": "run","sample":0}`,
		`{"sample":0,"kind":"run"}`,
		`{"kind":"run","sample":0,"kind":"eval"}`,
		`{"KIND":"run","sample":0}`,
		`{"kind":"r\u0075n","sample":0}`,
		`{"kind":"run","sample":-0}`,
		`{"kind":"run","sample":1e1}`,
		`{"kind":"run","sample":0,"step":07}`,
		`{"kind":"run","sample":0,"sched":false}`,
		`{"kind":"run","sample":0,"extra":[1,2]}`,
		`{"kind":"run","sample":0} `,
	} {
		if _, ok := parseEvent([]byte(line), nil); ok {
			t.Errorf("%s took the direct parse", line)
		}
		checkDecode(t, []byte(line))
	}
}

// FuzzEventCodec is the codec's differential test against encoding/json:
// for any line, the codec's accept/reject decision, error and decoded
// event must equal the reference's, and any event it decodes, or any
// event built from the inputs, must encode to the reference's bytes.
func FuzzEventCodec(f *testing.F) {
	for _, e := range sampleEvents() {
		line, _ := refMarshal(e)
		f.Add(line, e.Name, e.Seconds, e.Wall, e.Sched)
	}
	f.Add([]byte(`{"kind":"run","pseq":7,"phase":"cfr","sample":-1,"step":2,"name":"ok","modules":9,"attempt":3,"seconds":"0x1.8p+01","sim":"-Inf","wall":1792000000000000000,"sched":true}`),
		"<\u2028\xff\"\\", math.NaN(), int64(-1), true)
	f.Add([]byte(`{"kind":"run","sample":0,"pseq":9223372036854775808}`), "\b\f\x01", math.Inf(-1), int64(math.MaxInt64), false)
	f.Add([]byte(`{"kind":"run","sample":-2}`), "日本", 5e-324, int64(math.MinInt64), false)
	f.Add([]byte(`{"kind":"run","sample":0,"seconds":"0x"}`), "", 0.0, int64(0), false)
	f.Add([]byte(`not json`), "x", -0.0, int64(1), false)
	f.Fuzz(func(t *testing.T, line []byte, s string, v float64, n int64, sched bool) {
		if got, ok := checkDecode(t, line); ok {
			checkEncode(t, got)
		}
		built := Event{
			Kind: Kind(s), PhaseSeq: int(n), Phase: s, Sample: int(n >> 1), Step: int(n & 0xff),
			Name: s, Modules: int(n >> 8 & 0xffff), Attempt: int(n % 7),
			Seconds: v, Sim: -v, Wall: n, Sched: sched,
		}
		checkDecode(t, checkEncode(t, built))
	})
}
