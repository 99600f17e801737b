package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"funcytuner/internal/core"
	"funcytuner/internal/trace"
)

// sameValue reports whether a and b are deeply equal, floats compared by
// their bits so that a NaN a trace event carries equals itself.
func sameValue(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	}
	panic("sameValue: unexpected kind " + a.Kind().String())
}

// refEncode is what encoding/json writes for a claim or report batch
// response (its Encoder, newline included), a report batch request or a
// journal body (json.Marshal).
func refEncode(v any) ([]byte, error) {
	switch v.(type) {
	case *claimBatchResponse, *reportBatchResponse:
		var buf bytes.Buffer
		err := json.NewEncoder(&buf).Encode(v)
		return buf.Bytes(), err
	}
	return json.Marshal(v)
}

// handEncode is what the hand codec writes for the same four.
func handEncode(v any) ([]byte, error) {
	switch m := v.(type) {
	case *claimBatchResponse:
		return appendClaimBatch(nil, m)
	case *reportBatchRequest:
		return appendReportBatch(nil, m), nil
	case *reportBatchResponse:
		return appendReportBatchResponse(nil, m)
	case *journalBody:
		return appendJournalBody(nil, m)
	}
	panic("handEncode: unexpected message")
}

// checkEncode fails unless the hand codec writes v's bytes, or fails on
// it, as encoding/json does.
func checkEncode(t *testing.T, v any) {
	t.Helper()
	want, wantErr := refEncode(v)
	got, err := handEncode(v)
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%T: hand codec error %v, encoding/json error %v", v, err, wantErr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("%T: hand codec wrote\n%s\nencoding/json\n%s", v, got, want)
	}
}

// checkParse fails unless the hand parse of data either declines or
// yields the value encoding/json's Decoder decodes from it, unknown
// fields refused when strict. A value the Decoder decodes must also
// encode as encoding/json encodes it.
func checkParse[T any](t *testing.T, data []byte, parse func([]byte, *scratch) (T, bool), strict bool) {
	t.Helper()
	var want T
	dec := json.NewDecoder(bytes.NewReader(data))
	if strict {
		dec.DisallowUnknownFields()
	}
	decErr := dec.Decode(&want)
	if got, ok := parse(data, new(scratch)); ok && (decErr != nil || !sameValue(reflect.ValueOf(got), reflect.ValueOf(want))) {
		t.Fatalf("%q: hand parse %+v, encoding/json %+v, %v", data, got, want, decErr)
	}
	if decErr == nil {
		checkEncode(t, &want)
	}
}

// constructed builds the four messages, with every journal op as the
// coordinator writes it, from a string, a float and an integer.
func constructed(s string, x float64, n int64) []any {
	spec := Spec{Benchmark: s, Machine: s + "m", Samples: int(n), TopX: int(-n), Seed: s, FaultRate: x,
		Technique: s, Adaptive: n%2 == 0, Compare: n%3 == 0, WarmStart: n%5 == 0}
	cvs := [][]int{{int(n), 0, -1}, {}, nil, {int(n >> 3)}}
	ev := trace.Event{Kind: trace.Kind(s), PhaseSeq: int(n), Phase: s, Sample: int(n), Step: int(n), Name: s,
		Modules: int(n), Attempt: int(n), Seconds: x, Sim: -x, Wall: n, Sched: n%2 != 0}
	out := &Outcome{PerModule: []string{s, ""}, Total: s,
		Cost:        core.CostSnapshot{Compiles: n, Runs: -n, SimMicros: n, Retries: n, WastedCompiles: n, FaultMicros: n, CompileFails: n, RunCrashes: n, Timeouts: n, Flakes: n},
		Quarantined: []string{s}, Events: []trace.Event{ev, {Kind: trace.KindRun}}}
	task := &Task{ID: s, Job: s, Spec: spec, Phase: s, Sample: int(n), CVs: cvs, Epoch: int(n), LeaseMillis: n, HeartbeatMillis: -n}
	return []any{
		&claimBatchResponse{Tasks: []*Task{task, nil, {}}, Granted: int(n)},
		&claimBatchResponse{},
		&reportBatchRequest{Worker: s, Reports: []TaskReport{{Task: s, Epoch: int(n), Outcome: out, Error: s}, {Task: s, Outcome: &Outcome{}}, {}}, Max: int(n)},
		&reportBatchRequest{Worker: s},
		&reportBatchResponse{Accepted: []bool{n%2 == 0, true, false}, Tasks: []*Task{task, {}}},
		&reportBatchResponse{Accepted: []bool{}, Tasks: []*Task{}},
		&reportBatchResponse{},
		&journalBody{Op: opEnqueue, Task: s, Job: s, Spec: &spec, Phase: s, Sample: int(n), CVs: cvs},
		&journalBody{Op: opTask, Task: s, Job: s, Spec: &spec, Phase: s, Sample: int(n), CVs: cvs, Epoch: int(n), Losses: int(n), NotBefore: n},
		&journalBody{Op: opClaim, Task: s, Worker: s, Epoch: int(n), Deadline: n},
		&journalBody{Op: opHB, Task: s, Worker: s, Epoch: int(n), Deadline: -n},
		&journalBody{Op: opReport, Task: s, Worker: s, Epoch: int(n)},
		&journalBody{Op: opRequeue, Task: s, Worker: s, Epoch: int(n), Losses: int(n), NotBefore: n},
		&journalBody{Op: opWorker, Worker: s, Losses: int(n), Quarantined: n%2 == 0},
		&journalBody{Op: opAbandon, Task: s},
		&journalBody{Seq: n, Op: s, CVs: [][]int{}},
	}
}

// FuzzWireCodec holds the fleet's hand codec to encoding/json. For any
// input, each batch parse declines or yields the value encoding/json
// decodes (with unknown fields refused for the report batch request, as
// the coordinator reads it). For any value encoding/json decodes from
// the input, as a batch message or a journal body, and for the messages
// constructed from the other arguments, every journal op among them, the
// hand encoder writes encoding/json's bytes, or fails as it does on a
// fault rate no JSON number holds.
func FuzzWireCodec(f *testing.F) {
	body := func(line string) string {
		return line[strings.Index(line, `"body":`)+len(`"body":`) : len(line)-1]
	}
	var indented bytes.Buffer
	json.Indent(&indented, []byte(pinReport), "", " ")
	for _, seed := range []string{
		pinClaim,
		pinReport,
		pinReportMax,
		pinAnswer,
		pinAnswerTasks,
		strings.Replace(pinAnswerTasks, `"accepted":[true,true]`, `"accepted":[true,false,true]`, 1),
		`{"accepted":[],"tasks":[]}` + "\n",
		`{"accepted":null}` + "\n",
		`{"accepted":[true,1]}` + "\n",
		pinReports + `,"max":-7}`,
		strings.TrimSuffix(pinClaim, "\n"),
		strings.Replace(pinClaim, `"granted":256`, `"granted":256,"x":1`, 1),
		strings.Replace(pinClaim, `"fault_rate":0.35`, `"fault_rate":-2.5e-7`, 1),
		strings.Replace(pinReport, `,"error":"exec: LULESH run crashed (signal 11)"`, `,"error":"a \"quoted\" <error>"`, 1),
		indented.String(),
		pinReport[:len(pinReport)/2],
		`{"tasks":[]}` + "\n",
		`{"tasks":[}]}` + "\n",
		`{"worker":"w","reports":[}]}`,
		`{"worker":"w","reports":[{"task":"t","error":"a\\b\u0041\n"}]}`,
		`{"tasks":[{"id":"a","cvs":[[],[1,-2,0]]}],"granted":0}` + "\n",
		`{"worker":"w","reports":[{"task":"t","epoch":-1,"outcome":{"total":"NaN","events":[]}}]}`,
		body(`{"v":1,"sum":"fdf25317012eacf0","body":{"seq":1,"op":"claim","task":"job-a/collect/0#1","epoch":1,"worker":"w1","deadline":1760875200000000000}}`),
		body(`{"v":1,"sum":"24b1eb4c76e4f7ca","body":{"seq":3,"op":"outcome","error":"fleet: worker w2 failed task \"job-b/cfr/7#2\": <timeout> & retry","key":"7bc0559d383b0e76"}}`),
		`{"seq":4,"op":"task","task":"B","job":"j","spec":{"benchmark":"CL","machine":"broadwell","seed":"s","fault_rate":1e21},"cvs":[[1,2]],"epoch":2,"losses":1,"not_before":5,"quarantined":true}`,
	} {
		f.Add([]byte(seed), "job-a/cfr/7#2", 0.35, int64(7))
	}
	f.Add([]byte("{}"), "<a & \"b\"> \xff", math.Inf(1), int64(math.MinInt64))
	f.Add([]byte("null"), "", math.NaN(), int64(-1))
	f.Add([]byte(""), "x", 1e-7, int64(math.MaxInt64))
	f.Add([]byte("[]"), "", 0.0, int64(0))
	f.Fuzz(func(t *testing.T, data []byte, s string, x float64, n int64) {
		checkParse(t, data, parseClaimBatch, false)
		checkParse(t, data, parseReportBatch, true)
		checkParse(t, data, parseReportBatchResponse, false)
		var b journalBody
		if json.Unmarshal(data, &b) == nil {
			checkEncode(t, &b)
		}
		for _, v := range constructed(s, x, n) {
			checkEncode(t, v)
			enc, err := handEncode(v)
			switch v.(type) {
			case *claimBatchResponse:
				if err == nil {
					checkParse(t, enc, parseClaimBatch, false)
				}
			case *reportBatchRequest:
				checkParse(t, enc, parseReportBatch, true)
			case *reportBatchResponse:
				if err == nil {
					checkParse(t, enc, parseReportBatchResponse, false)
				}
			}
		}
	})
}

// TestWireParseDamagedBodies runs every body one byte away from the
// pinned batches, one byte dropped or doubled, through both parses: a
// parse must decline each body encoding/json refuses and decode each
// other one to encoding/json's value, whatever the lost or doubled byte
// was (a comma, a bracket, a quote, a digit).
func TestWireParseDamagedBodies(t *testing.T) {
	for _, body := range []string{pinClaim, pinReport, pinReportMax, pinAnswer, pinAnswerTasks} {
		for i := range body {
			for _, damaged := range []string{body[:i] + body[i+1:], body[:i+1] + body[i:]} {
				checkParse(t, []byte(damaged), parseClaimBatch, false)
				checkParse(t, []byte(damaged), parseReportBatch, true)
				checkParse(t, []byte(damaged), parseReportBatchResponse, false)
			}
		}
	}
}

// fill sets every exported field of v, recursively, to a value that is
// not zero: strings to ones that need no escaping, numbers to k,
// booleans to true, slices to two elements and pointers to filled
// values. Unexported fields, which no encoder writes, stay zero.
func fill(v reflect.Value, k *int) {
	*k++
	switch v.Kind() {
	case reflect.String:
		v.SetString("v" + strings.Repeat("x", *k%7))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*k))
	case reflect.Float64:
		v.SetFloat(float64(*k) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), k)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), k)
		fill(v.Index(1), k)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), k)
			}
		}
	default:
		panic("fill: unexpected kind " + v.Kind().String())
	}
}

// TestWireCodecEveryField fills every field of the four messages and
// checks the hand codec against encoding/json, so a field added to any
// type they carry (a spec, a CV matrix, a cost, a trace event) fails
// here until the codec writes it. The filled batches also parse back to
// themselves by hand.
func TestWireCodecEveryField(t *testing.T) {
	k := 0
	for _, v := range []any{&claimBatchResponse{}, &reportBatchRequest{}, &reportBatchResponse{}, &journalBody{}} {
		fill(reflect.ValueOf(v).Elem(), &k)
		checkEncode(t, v)
	}
	var claim claimBatchResponse
	fill(reflect.ValueOf(&claim).Elem(), &k)
	enc, _ := handEncode(&claim)
	if got, ok := parseClaimBatch(enc, new(scratch)); !ok || !reflect.DeepEqual(got, claim) {
		t.Fatalf("filled claim batch parsed as %+v, %v", got, ok)
	}
	var report reportBatchRequest
	fill(reflect.ValueOf(&report).Elem(), &k)
	for i := range report.Reports {
		for j := range report.Reports[i].Outcome.Events {
			report.Reports[i].Outcome.Events[j].Sample = j // the event codec reads no sample below -1
		}
	}
	enc, _ = handEncode(&report)
	if got, ok := parseReportBatch(enc, new(scratch)); !ok || !reflect.DeepEqual(got, report) {
		t.Fatalf("filled report batch parsed as %+v, %v", got, ok)
	}
	var answer reportBatchResponse
	fill(reflect.ValueOf(&answer).Elem(), &k)
	enc, _ = handEncode(&answer)
	if got, ok := parseReportBatchResponse(enc, new(scratch)); !ok || !reflect.DeepEqual(got, answer) {
		t.Fatalf("filled report batch answer parsed as %+v, %v", got, ok)
	}
}
