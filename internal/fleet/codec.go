package fleet

// This file is the fleet's hand codec for the messages it sends per
// evaluation: the claim batch response, the report batch request and
// response, and every journal record. The writers produce exactly the
// bytes encoding/json writes for them: json.NewEncoder's for the two
// responses, newline included, and json.Marshal's for the other two; an
// outcome's trace span goes through the trace event codec. The readers
// parse the three batch messages in that canonical shape only, and their
// callers hand any other body to encoding/json (see readMessage), so
// accepted bodies, decoded values and error texts are encoding/json's.
// Journal replay stays on encoding/json. FuzzWireCodec holds both halves
// to encoding/json.

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"

	"funcytuner/internal/jsonx"
	"funcytuner/internal/trace"
)

// specError is the error json.Marshal gives a spec whose fault rate no
// JSON number can hold.
func specError(sp *Spec) error {
	if f := sp.FaultRate; math.IsInf(f, 0) || math.IsNaN(f) {
		return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
}

// tasksError is the error json.Marshal gives tasks one of whose specs
// it cannot encode.
func tasksError(ts []*Task) error {
	for _, t := range ts {
		if t != nil {
			if err := specError(&t.Spec); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendClaimBatch appends the claim batch response body.
func appendClaimBatch(dst []byte, r *claimBatchResponse) ([]byte, error) {
	if err := tasksError(r.Tasks); err != nil {
		return dst, err
	}
	dst = appendTasks(append(dst, `{"tasks":`...), r.Tasks)
	dst = jsonx.OmitInt(dst, `,"granted":`, int64(r.Granted))
	return append(dst, "}\n"...), nil
}

// appendReportBatchResponse appends the report batch response body.
func appendReportBatchResponse(dst []byte, r *reportBatchResponse) ([]byte, error) {
	if err := tasksError(r.Tasks); err != nil {
		return dst, err
	}
	dst = append(dst, `{"accepted":`...)
	if r.Accepted == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, ok := range r.Accepted {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendBool(dst, ok)
		}
		dst = append(dst, ']')
	}
	if len(r.Tasks) > 0 {
		dst = appendTasks(append(dst, `,"tasks":`...), r.Tasks)
	}
	return append(dst, "}\n"...), nil
}

func appendTasks(dst []byte, ts []*Task) []byte {
	if ts == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, t := range ts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendTask(dst, t)
	}
	return append(dst, ']')
}

func appendTask(dst []byte, t *Task) []byte {
	if t == nil {
		return append(dst, "null"...)
	}
	dst = jsonx.AppendString(append(dst, `{"id":`...), t.ID)
	dst = jsonx.AppendString(append(dst, `,"job":`...), t.Job)
	dst = appendSpec(append(dst, `,"spec":`...), &t.Spec)
	dst = jsonx.AppendString(append(dst, `,"phase":`...), t.Phase)
	dst = strconv.AppendInt(append(dst, `,"sample":`...), int64(t.Sample), 10)
	dst = appendCVs(append(dst, `,"cvs":`...), t.CVs)
	dst = strconv.AppendInt(append(dst, `,"epoch":`...), int64(t.Epoch), 10)
	dst = strconv.AppendInt(append(dst, `,"lease_millis":`...), t.LeaseMillis, 10)
	dst = strconv.AppendInt(append(dst, `,"heartbeat_millis":`...), t.HeartbeatMillis, 10)
	return append(dst, '}')
}

// appendSpec appends a spec whose fault rate specError accepts.
func appendSpec(dst []byte, sp *Spec) []byte {
	dst = jsonx.AppendString(append(dst, `{"benchmark":`...), sp.Benchmark)
	dst = jsonx.AppendString(append(dst, `,"machine":`...), sp.Machine)
	dst = jsonx.OmitInt(dst, `,"samples":`, int64(sp.Samples))
	dst = jsonx.OmitInt(dst, `,"topx":`, int64(sp.TopX))
	dst = jsonx.AppendString(append(dst, `,"seed":`...), sp.Seed)
	if sp.FaultRate != 0 {
		dst = jsonx.AppendFloat(append(dst, `,"fault_rate":`...), sp.FaultRate)
	}
	dst = jsonx.OmitString(dst, `,"technique":`, sp.Technique)
	dst = appendTrue(dst, `,"adaptive":true`, sp.Adaptive)
	dst = appendTrue(dst, `,"compare":true`, sp.Compare)
	dst = appendTrue(dst, `,"warm_start":true`, sp.WarmStart)
	return append(dst, '}')
}

// appendTrue appends an omitempty boolean field, field, when v is set.
func appendTrue(dst []byte, field string, v bool) []byte {
	if v {
		dst = append(dst, field...)
	}
	return dst
}

func appendCVs(dst []byte, cvs [][]int) []byte {
	if cvs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, row := range cvs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if row == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// appendReportBatch appends the report batch request body.
func appendReportBatch(dst []byte, r *reportBatchRequest) []byte {
	dst = jsonx.AppendString(append(dst, `{"worker":`...), r.Worker)
	dst = append(dst, `,"reports":`...)
	if r.Reports == nil {
		dst = append(dst, "null"...)
	} else {
		dst = appendReports(dst, r.Reports)
	}
	dst = jsonx.OmitInt(dst, `,"max":`, int64(r.Max))
	return append(dst, '}')
}

func appendReports(dst []byte, reports []TaskReport) []byte {
	dst = append(dst, '[')
	for i := range reports {
		rep := &reports[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonx.AppendString(append(dst, `{"task":`...), rep.Task)
		dst = strconv.AppendInt(append(dst, `,"epoch":`...), int64(rep.Epoch), 10)
		if rep.Outcome != nil {
			dst = appendOutcome(append(dst, `,"outcome":`...), rep.Outcome)
		}
		dst = jsonx.OmitString(dst, `,"error":`, rep.Error)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

func appendOutcome(dst []byte, o *Outcome) []byte {
	dst = append(dst, '{')
	if len(o.PerModule) > 0 {
		dst = append(appendStrings(append(dst, `"per_module":`...), o.PerModule), ',')
	}
	dst = jsonx.AppendString(append(dst, `"total":`...), o.Total)
	c := &o.Cost
	dst = strconv.AppendInt(append(dst, `,"cost":{"compiles":`...), c.Compiles, 10)
	dst = strconv.AppendInt(append(dst, `,"runs":`...), c.Runs, 10)
	dst = strconv.AppendInt(append(dst, `,"sim_micros":`...), c.SimMicros, 10)
	dst = strconv.AppendInt(append(dst, `,"retries":`...), c.Retries, 10)
	dst = strconv.AppendInt(append(dst, `,"wasted_compiles":`...), c.WastedCompiles, 10)
	dst = strconv.AppendInt(append(dst, `,"fault_micros":`...), c.FaultMicros, 10)
	dst = strconv.AppendInt(append(dst, `,"compile_fails":`...), c.CompileFails, 10)
	dst = strconv.AppendInt(append(dst, `,"run_crashes":`...), c.RunCrashes, 10)
	dst = strconv.AppendInt(append(dst, `,"timeouts":`...), c.Timeouts, 10)
	dst = strconv.AppendInt(append(dst, `,"flakes":`...), c.Flakes, 10)
	dst = append(dst, '}')
	if len(o.Quarantined) > 0 {
		dst = appendStrings(append(dst, `,"quarantined":`...), o.Quarantined)
	}
	if len(o.Events) > 0 {
		dst = append(dst, `,"events":[`...)
		for i := range o.Events {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = trace.AppendEvent(dst, &o.Events[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonx.AppendString(dst, s)
	}
	return append(dst, ']')
}

// appendJournalBody appends a journal record's body.
func appendJournalBody(dst []byte, b *journalBody) ([]byte, error) {
	if b.Spec != nil {
		if err := specError(b.Spec); err != nil {
			return dst, err
		}
	}
	dst = strconv.AppendInt(append(dst, `{"seq":`...), b.Seq, 10)
	dst = jsonx.AppendString(append(dst, `,"op":`...), b.Op)
	dst = jsonx.OmitString(dst, `,"task":`, b.Task)
	dst = jsonx.OmitString(dst, `,"job":`, b.Job)
	if b.Spec != nil {
		dst = appendSpec(append(dst, `,"spec":`...), b.Spec)
	}
	dst = jsonx.OmitString(dst, `,"phase":`, b.Phase)
	dst = jsonx.OmitInt(dst, `,"sample":`, int64(b.Sample))
	if len(b.CVs) > 0 {
		dst = appendCVs(append(dst, `,"cvs":`...), b.CVs)
	}
	dst = jsonx.OmitInt(dst, `,"epoch":`, int64(b.Epoch))
	dst = jsonx.OmitInt(dst, `,"losses":`, int64(b.Losses))
	dst = jsonx.OmitInt(dst, `,"not_before":`, b.NotBefore)
	dst = jsonx.OmitString(dst, `,"worker":`, b.Worker)
	dst = jsonx.OmitInt(dst, `,"deadline":`, b.Deadline)
	dst = appendTrue(dst, `,"quarantined":true`, b.Quarantined)
	return append(dst, '}'), nil
}

// wireParser reads one batch message. ints, raws and events are
// scratch space reused across the rows, string arrays and spans of the
// message.
type wireParser struct {
	jsonx.Parser
	ints   []int
	raws   [][]byte
	events []trace.Event
}

// need fails p unless the message continues with s.
func (p *wireParser) need(s string) {
	if !p.Lit(s) {
		p.Fail()
	}
}

// more reports whether an array has another element: false at its
// closing bracket, and otherwise after consuming the comma that must
// separate the element from the n read before it.
func (p *wireParser) more(n int) bool {
	if !p.OK() || p.Lit("]") {
		return false
	}
	if n > 0 {
		p.need(",")
	}
	return true
}

func (p *wireParser) int(key string) int {
	return int(p.Int(key, math.MinInt, math.MaxInt))
}

func (p *wireParser) int64(key string) int64 {
	return p.Int(key, math.MinInt64, math.MaxInt64)
}

// parseClaimBatch parses a claim batch response body of the shape
// appendClaimBatch writes. It reports false for any other body.
func parseClaimBatch(data []byte, s *scratch) (claimBatchResponse, bool) {
	p := s.parser(data)
	var r claimBatchResponse
	if !p.Lit(`{"tasks":[`) {
		return r, false
	}
	r.Tasks = p.tasks()
	r.Granted = p.int(`,"granted":`)
	return r, p.Lit("}\n") && p.End()
}

// parseReportBatchResponse parses a report batch response body of the
// shape appendReportBatchResponse writes. It reports false for any
// other body.
func parseReportBatchResponse(data []byte, s *scratch) (reportBatchResponse, bool) {
	p := s.parser(data)
	var r reportBatchResponse
	if !p.Lit(`{"accepted":[`) {
		return r, false
	}
	r.Accepted = []bool{}
	for p.more(len(r.Accepted)) {
		switch {
		case p.Lit("true"):
			r.Accepted = append(r.Accepted, true)
		case p.Lit("false"):
			r.Accepted = append(r.Accepted, false)
		default:
			p.Fail()
		}
	}
	if p.Lit(`,"tasks":[`) {
		r.Tasks = p.tasks()
	}
	return r, p.Lit("}\n") && p.End()
}

// tasks reads the elements of a task array whose opening bracket was
// read.
func (p *wireParser) tasks() []*Task {
	ts := []*Task{}
	for p.more(len(ts)) {
		ts = append(ts, p.task())
	}
	return ts
}

func (p *wireParser) task() *Task {
	p.need(`{"id":`)
	t := &Task{ID: string(p.Raw(""))}
	t.Job = p.Str(`,"job":`)
	if p.Lit(`,"spec":`) {
		p.spec(&t.Spec)
	}
	t.Phase = p.Str(`,"phase":`)
	t.Sample = p.int(`,"sample":`)
	if p.Lit(`,"cvs":`) {
		t.CVs = p.cvs()
	}
	t.Epoch = p.int(`,"epoch":`)
	t.LeaseMillis = p.int64(`,"lease_millis":`)
	t.HeartbeatMillis = p.int64(`,"heartbeat_millis":`)
	p.need("}")
	return t
}

func (p *wireParser) spec(sp *Spec) {
	p.need(`{"benchmark":`)
	sp.Benchmark = p.Str("")
	sp.Machine = p.Str(`,"machine":`)
	sp.Samples = p.int(`,"samples":`)
	sp.TopX = p.int(`,"topx":`)
	sp.Seed = p.Str(`,"seed":`)
	sp.FaultRate = p.Float(`,"fault_rate":`)
	sp.Technique = p.Str(`,"technique":`)
	sp.Adaptive = p.Lit(`,"adaptive":true`)
	sp.Compare = p.Lit(`,"compare":true`)
	sp.WarmStart = p.Lit(`,"warm_start":true`)
	p.need("}")
}

// cvs reads a CV matrix into one allocation of values and one of rows.
func (p *wireParser) cvs() [][]int {
	p.need("[")
	p.ints = p.ints[:0]
	var ends []int
	for p.more(len(ends)) {
		p.need("[")
		start := len(p.ints)
		for p.more(len(p.ints) - start) {
			p.ints = append(p.ints, p.int(""))
		}
		ends = append(ends, len(p.ints))
	}
	vals := make([]int, len(p.ints))
	copy(vals, p.ints)
	rows := make([][]int, len(ends))
	start := 0
	for i, end := range ends {
		rows[i] = vals[start:end:end]
		start = end
	}
	return rows
}

// parseReportBatch parses a report batch request body of the shape
// appendReportBatch writes. It reports false for any other body.
func parseReportBatch(data []byte, s *scratch) (reportBatchRequest, bool) {
	p := s.parser(data)
	var r reportBatchRequest
	if !p.Lit(`{"worker":`) {
		return r, false
	}
	r.Worker = string(p.Raw(""))
	p.need(`,"reports":[`)
	r.Reports = []TaskReport{}
	for p.more(len(r.Reports)) {
		p.need(`{"task":`)
		rep := TaskReport{Task: string(p.Raw(""))}
		rep.Epoch = p.int(`,"epoch":`)
		if p.Lit(`,"outcome":`) {
			rep.Outcome = p.outcome()
		}
		rep.Error = string(p.Raw(`,"error":`))
		p.need("}")
		r.Reports = append(r.Reports, rep)
	}
	r.Max = p.int(`,"max":`)
	return r, p.Lit("}") && p.End()
}

func (p *wireParser) outcome() *Outcome {
	o := &Outcome{}
	p.need("{")
	if p.Lit(`"per_module":`) {
		o.PerModule = p.strings()
		p.need(",")
	}
	p.need(`"total":`)
	o.Total = string(p.Raw(""))
	if p.Lit(`,"cost":`) {
		c := &o.Cost
		p.need(`{"compiles":`)
		c.Compiles = p.int64("")
		c.Runs = p.int64(`,"runs":`)
		c.SimMicros = p.int64(`,"sim_micros":`)
		c.Retries = p.int64(`,"retries":`)
		c.WastedCompiles = p.int64(`,"wasted_compiles":`)
		c.FaultMicros = p.int64(`,"fault_micros":`)
		c.CompileFails = p.int64(`,"compile_fails":`)
		c.RunCrashes = p.int64(`,"run_crashes":`)
		c.Timeouts = p.int64(`,"timeouts":`)
		c.Flakes = p.int64(`,"flakes":`)
		p.need("}")
	}
	if p.Lit(`,"quarantined":`) {
		o.Quarantined = p.strings()
	}
	if p.Lit(`,"events":`) {
		p.need("[")
		p.events = p.events[:0]
		for p.more(len(p.events)) {
			p.events = append(p.events, trace.ParseEvent(&p.Parser))
		}
		o.Events = append([]trace.Event{}, p.events...)
	}
	p.need("}")
	return o
}

// strings reads an array of strings, all cut from one allocation.
func (p *wireParser) strings() []string {
	p.need("[")
	p.raws = p.raws[:0]
	n := 0
	for p.more(len(p.raws)) {
		p.raws = append(p.raws, p.Raw(""))
		n += len(p.raws[len(p.raws)-1])
	}
	var all strings.Builder
	all.Grow(n)
	for _, b := range p.raws {
		all.Write(b)
	}
	joined := all.String()
	ss := make([]string, len(p.raws))
	for i, b := range p.raws {
		ss[i], joined = joined[:len(b)], joined[len(b):]
	}
	return ss
}

// scratch is what one message is written or read with, recycled across
// messages through scratchPool: the message's bytes, the strings its
// parse shares, and its parser's scratch space.
type scratch struct {
	buf   []byte
	names map[string]string
	p     wireParser
}

// parser returns the scratch's parser over data.
func (s *scratch) parser(data []byte) *wireParser {
	clear(s.names)
	s.p.Parser = jsonx.NewParser(data, s.names)
	return &s.p
}
