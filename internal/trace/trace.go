// Package trace records span-based structured events from a tuning
// session: session and phase markers, per-evaluation compile/link/run
// steps, injected faults and retries. Compile-cache activity is not
// traced: the session's metrics count it per tier and outcome (see
// core/observe.go), which is all a per-lookup event would say.
//
// Determinism is the organizing constraint. The repository's invariant is
// that every Report is a pure function of (program, machine, input, seed,
// config) — independent of worker count, cache state, and kill/resume.
// A trace must observe that pipeline without perturbing it, and the
// deterministic portion of the trace must itself be reproducible. Two
// consequences shape the design:
//
//   - Timestamps inside an evaluation are simulated-clock offsets taken
//     from the evaluation's own cost ledger (seconds of modeled compile,
//     run, backoff and fault time since the evaluation began). There is
//     no global simulated timeline: evaluations execute on concurrent
//     workers in scheduling-dependent order, so any cross-evaluation
//     clock would be nondeterministic. Per-evaluation offsets are exact.
//   - Events whose very existence depends on goroutine scheduling carry
//     Sched=true and are excluded from the canonical export, mirroring
//     Report.Fingerprint's exclusion of cache counters. The session
//     emits none; traces written by earlier versions carry
//     per-lookup compile-cache events ("kind":"cache") marked this way,
//     and they still decode and canonicalize to the same bytes.
//
// Canonical() therefore yields a byte-identical JSONL document for a
// given (seed, config) across runs and across worker counts. Wall-clock
// stamps, when enabled with WallClock, are for humans reading a live
// -trace file; Canonical strips them.
//
// Float fields are encoded as hexadecimal float strings
// (strconv.FormatFloat(v, 'x', -1, 64)), the same lossless round-trip
// representation the checkpoint format uses, so encode∘decode∘encode is
// byte-stable including ±Inf.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Kind classifies an event.
type Kind string

const (
	// KindSession marks session creation; Name identifies
	// program/machine/seed.
	KindSession Kind = "session"
	// KindPhase marks entry into a pipeline phase (collect, random, fr,
	// greedy, cfr, cfr-adaptive); it carries the phase's sequence number.
	KindPhase Kind = "phase"
	// KindEval closes an evaluation span: Name is the outcome
	// ("ok", "lost", "compile-fail"), Seconds the measured time, Sim the
	// total simulated seconds the evaluation consumed.
	KindEval Kind = "eval"
	// KindCompile records the per-module compile step of an evaluation;
	// Modules is the number of translation units.
	KindCompile Kind = "compile"
	// KindLink records the link step of an evaluation.
	KindLink Kind = "link"
	// KindRun records one execution of the linked binary; Seconds is the
	// modeled runtime, Name "ok" or "killed".
	KindRun Kind = "run"
	// KindRetry records a retry decision after a flaky run; Attempt is
	// the 1-based retry number and Seconds the backoff charged.
	KindRetry Kind = "retry"
	// KindFault records an injected or genuine failure; Name is the fault
	// class ("compile-fail", "run-crash", "timeout", "flake", "crash",
	// "deadline") and Seconds the simulated time it cost.
	KindFault Kind = "fault"
)

// Event is one trace record. The zero value of optional fields is
// omitted from the JSONL encoding.
type Event struct {
	// Kind classifies the event.
	Kind Kind
	// PhaseSeq is the deterministic ordinal of the enclosing phase
	// (0 before the first phase marker).
	PhaseSeq int
	// Phase is the enclosing phase name ("collect", "cfr", ...).
	Phase string
	// Sample is the evaluation's sample index within the phase, or -1
	// for events outside any evaluation (session/phase).
	Sample int
	// Step is the event's ordinal within its evaluation span.
	Step int
	// Name carries the event's detail: session identity, outcome or
	// fault class.
	Name string
	// Modules is the translation-unit count for compile events.
	Modules int
	// Attempt is the 1-based retry number for retry events.
	Attempt int
	// Seconds is the event's modeled duration or measured time.
	Seconds float64
	// Sim is the simulated-clock offset within the evaluation: total
	// simulated seconds the evaluation had consumed when the event was
	// recorded.
	Sim float64
	// Wall is an optional wall-clock stamp in nanoseconds (0 when the
	// recorder has no wall clock). Never part of the canonical export.
	Wall int64
	// Sched marks events whose existence or classification depends on
	// goroutine scheduling; Canonical drops them. The session records
	// no Sched event; the flag keeps the compile-cache events of traces
	// written by earlier versions out of their canonical form, and gives
	// wall-clock data a place outside the canonical trace.
	Sched bool
}

// eventJSON is the wire form. Field order defines the canonical byte
// encoding; floats travel as lossless hex-float strings.
type eventJSON struct {
	Kind    string `json:"kind"`
	Pseq    int    `json:"pseq,omitempty"`
	Phase   string `json:"phase,omitempty"`
	Sample  int    `json:"sample"`
	Step    int    `json:"step,omitempty"`
	Name    string `json:"name,omitempty"`
	Modules int    `json:"modules,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Seconds string `json:"seconds,omitempty"`
	Sim     string `json:"sim,omitempty"`
	Wall    int64  `json:"wall,omitempty"`
	Sched   bool   `json:"sched,omitempty"`
}

// formatSeconds renders a float as a lossless hex-float string, with ""
// for zero so unset durations stay off the wire. -0 intentionally
// collapses to 0: the encoding must be a pure function with a stable
// fixed point, and ParseFloat("") cannot return -0.
func formatSeconds(v float64) string {
	if v == 0 {
		return ""
	}
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// parseSeconds is the inverse of formatSeconds ("" → 0).
func parseSeconds(s string) (float64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}

// MarshalJSON encodes the event in the canonical wire form.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Kind:    string(e.Kind),
		Pseq:    e.PhaseSeq,
		Phase:   e.Phase,
		Sample:  e.Sample,
		Step:    e.Step,
		Name:    e.Name,
		Modules: e.Modules,
		Attempt: e.Attempt,
		Seconds: formatSeconds(e.Seconds),
		Sim:     formatSeconds(e.Sim),
		Wall:    e.Wall,
		Sched:   e.Sched,
	})
}

// UnmarshalJSON decodes and validates one event. It never panics on
// corrupt input; anything it accepts re-encodes byte-identically.
func (e *Event) UnmarshalJSON(data []byte) error {
	var w eventJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Kind == "" {
		return errors.New("trace: event with empty kind")
	}
	if w.Pseq < 0 || w.Step < 0 || w.Modules < 0 || w.Attempt < 0 || w.Wall < 0 {
		return errors.New("trace: negative ordinal field")
	}
	if w.Sample < -1 {
		return fmt.Errorf("trace: sample index %d out of range", w.Sample)
	}
	secs, err := parseSeconds(w.Seconds)
	if err != nil {
		return fmt.Errorf("trace: bad seconds %q: %v", w.Seconds, err)
	}
	sim, err := parseSeconds(w.Sim)
	if err != nil {
		return fmt.Errorf("trace: bad sim %q: %v", w.Sim, err)
	}
	*e = Event{
		Kind:     Kind(w.Kind),
		PhaseSeq: w.Pseq,
		Phase:    w.Phase,
		Sample:   w.Sample,
		Step:     w.Step,
		Name:     w.Name,
		Modules:  w.Modules,
		Attempt:  w.Attempt,
		Seconds:  secs,
		Sim:      sim,
		Wall:     w.Wall,
		Sched:    w.Sched,
	}
	return nil
}

// Trace is an ordered collection of events, as captured by a Recorder or
// decoded from JSONL.
type Trace struct {
	Events []Event
}

// Canonical returns the deterministic view of the trace: scheduling-
// dependent events dropped, wall-clock stamps stripped, and the rest
// sorted by (PhaseSeq, Sample, Step) — the order evaluations would have
// run in sequentially. Its JSONL encoding is byte-identical for a given
// (seed, config) across runs and worker counts.
func (t *Trace) Canonical() *Trace {
	out := make([]Event, 0, len(t.Events))
	for _, e := range t.Events {
		if e.Sched {
			continue
		}
		e.Wall = 0
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.PhaseSeq != b.PhaseSeq {
			return a.PhaseSeq < b.PhaseSeq
		}
		if a.Sample != b.Sample {
			return a.Sample < b.Sample
		}
		if a.Step != b.Step {
			return a.Step < b.Step
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Name < b.Name
	})
	return &Trace{Events: out}
}

// WriteJSONL writes the trace, one event per line, in the canonical
// encoding.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range t.Events {
		b, err := t.Events[i].MarshalJSON()
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes a JSONL trace. Corrupt input yields an error naming
// the offending line; it never panics.
func ReadJSONL(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	// No eager buffer: the scanner starts small and grows geometrically on
	// demand (JSONL trace lines are short), but may still grow to 4 MiB
	// before a long line becomes an error. Passing a preallocated 64 KiB
	// buffer here cost one large allocation on every load, even for tiny
	// traces.
	sc.Buffer(nil, 4*1024*1024)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := e.UnmarshalJSON(raw); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line, err)
	}
	return t, nil
}

// Diff reports the first divergence between two traces as a human-
// readable message, or "" when they are identical. Golden-trace tests
// use it so a failure names the first divergent event rather than two
// opaque byte blobs.
func Diff(a, b *Trace) string {
	n := len(a.Events)
	if len(b.Events) < n {
		n = len(b.Events)
	}
	for i := 0; i < n; i++ {
		la, _ := a.Events[i].MarshalJSON()
		lb, _ := b.Events[i].MarshalJSON()
		if string(la) != string(lb) {
			return fmt.Sprintf("event %d differs:\n  a: %s\n  b: %s", i, la, lb)
		}
	}
	if len(a.Events) != len(b.Events) {
		var extra []byte
		side := "b"
		if len(a.Events) > len(b.Events) {
			extra, _ = a.Events[n].MarshalJSON()
			side = "a"
		} else {
			extra, _ = b.Events[n].MarshalJSON()
		}
		return fmt.Sprintf("lengths differ (%d vs %d); first extra event in %s: %s",
			len(a.Events), len(b.Events), side, extra)
	}
	return ""
}
